package main

// The ranad process under test: started fresh for every round, read
// through /proc while it runs, and stopped before the next one starts.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

type ranad struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr bytes.Buffer
	done   chan error
}

// startRanad execs the binary on an ephemeral loopback port and returns
// once it has announced its address.
func startRanad(ctx context.Context, bin string, args ...string) (*ranad, error) {
	d := &ranad{done: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	d.cmd.Stderr = &d.stderr
	// ranad must not outlive the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ranad: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ranad: listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		d.done <- d.cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-d.done
			return nil, fmt.Errorf("ranad exited before listening: %s", d.stderr.String())
		}
		d.base = "http://" + a
		return d, nil
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// waitHealthy polls /healthz until it answers 200.
func (d *ranad) waitHealthy(ctx context.Context, c *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ranad never became healthy: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time. It returns once the process has ended.
func (d *ranad) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("ranad did not drain within 10s; killed")
	}
}

// cpu returns ranad's user+system CPU time so far.
func (d *ranad) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns ranad's resident-set high-water mark in bytes.
func (d *ranad) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverCounts are the /metrics counters the benchmark reads.
type serverCounts struct {
	Hits       int64 `json:"cache_hits"`
	Misses     int64 `json:"cache_misses"`
	Deduped    int64 `json:"deduped"`
	StoreHits  int64 `json:"store_hits"`
	MemoHits   int64 `json:"memo_hits"`
	PrefixHits int64 `json:"memo_prefix_hits"`
}

func (d *ranad) metrics(ctx context.Context, c *http.Client) (serverCounts, error) {
	var sc serverCounts
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return sc, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return sc, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		return sc, fmt.Errorf("decoding /metrics: %w", err)
	}
	return sc, nil
}

// hostCPU returns the machine's CPU time so far and the part of it the
// hypervisor stole, in clock ticks, from the first line of /proc/stat.
func hostCPU() (total, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:9] {
		n, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}
