package main

// The host speed probe. On a shared virtual machine the speed of a vCPU
// drifts by tens of percent over minutes even when the hypervisor steals
// nothing: ranad's CPU time per request moves with it, and so does every
// wall-clock figure. The probe measures that drift while the load runs,
// so each round's times can be scaled to a fixed reference speed.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

const (
	// probeEvery is how often the probe runs its kernel; at one to two
	// times probeRef per run it takes 1–3% of one core.
	probeEvery = 20 * time.Millisecond
	// probeRef is the kernel's thread CPU time at the reference speed,
	// in microseconds: about its median under hit-zoo load on a quiet
	// 2-vCPU Xeon guest. Reported times are as if every round had run
	// at that speed.
	probeRef = 300.0
	// probeTrips sizes the kernel: JSON round trips of a small
	// plan-like document, the kind of work ranad's request path does.
	// Of the kernels tried (SHA-256, pointer chasing over 256 KiB and
	// 4 MiB tables, mixes of the two), this one tracked ranad's CPU time
	// per request most closely from run to run, on hit-zoo and churn.
	probeTrips = 15
)

// probeDoc is the kernel's document.
type probeDoc struct {
	Name   string             `json:"name"`
	Layers []probeLayer       `json:"layers"`
	Totals map[string]float64 `json:"totals"`
}

type probeLayer struct {
	Name        string  `json:"name"`
	Pattern     string  `json:"pattern"`
	Tiles       [4]int  `json:"tiles"`
	EnergyPJ    float64 `json:"energy_pj"`
	RefreshFree bool    `json:"refresh_free"`
}

var probeInput = func() probeDoc {
	d := probeDoc{Name: "probe", Totals: map[string]float64{"dram_pj": 1.5e9, "refresh_pj": 2.5e7, "compute_pj": 9e8}}
	for i := 0; i < 6; i++ {
		d.Layers = append(d.Layers, probeLayer{Name: fmt.Sprintf("conv%d", i+1), Pattern: "OD",
			Tiles: [4]int{16, 8 << i, 14, 14}, EnergyPJ: 1.25e8 * float64(i+1), RefreshFree: i%2 == 0})
	}
	return d
}()

// speedProbe runs the kernel every probeEvery on its own OS thread and
// keeps the thread CPU time each run took. CPU time, not wall time, so
// waiting for a core does not count; what remains is how fast the core
// executes a fixed piece of work.
type speedProbe struct {
	stop   chan struct{}
	done   chan []float64
	result float64
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go p.loop()
	return p
}

// finish stops the probe, waits for its goroutine and returns the median
// kernel time in microseconds (probeRef if the kernel never ran). Later
// calls return the same value.
func (p *speedProbe) finish() float64 {
	if p.result != 0 {
		return p.result
	}
	close(p.stop)
	p.result = probeRef
	if samples := <-p.done; len(samples) > 0 {
		p.result = median(samples)
	}
	return p.result
}

func (p *speedProbe) loop() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	var samples []float64
	for {
		t0 := threadCPU()
		probeKernel()
		samples = append(samples, us(threadCPU()-t0))
		select {
		case <-p.stop:
			p.done <- samples
			return
		case <-tick.C:
		}
	}
}

// probeKernel does the fixed work.
func probeKernel() {
	for i := 0; i < probeTrips; i++ {
		b, _ := json.Marshal(&probeInput)
		var d probeDoc
		_ = json.Unmarshal(b, &d)
	}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
