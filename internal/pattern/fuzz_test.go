package pattern

import (
	"reflect"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
)

// FuzzAnalyze: for any valid fuzzed (layer, tiling) pair and every
// computation pattern, the analytical model satisfies its structural
// invariants — the MAC count is the layer's exact arithmetic, the cycle
// count is achievable (at least MACs/PEs) and converts consistently to
// wall time, utilization is a true ratio, no data lifetime outlives the
// layer, and the storage footprint decides buffer fit. The fuzzed
// traversal (linear, blocked up to past MaxTraversalBlocks) also pins
// AnalyzeTraversalInto's contract: analyzing into a destination full of
// a previous candidate's garbage equals analyzing into a zero value, so
// no field can survive from one reuse to the next.
func FuzzAnalyze(f *testing.F) {
	f.Add(3, 4, 8, 3, 1, 1, 2, 2, 2, 2, 0)
	f.Add(1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 2)
	f.Add(16, 16, 14, 5, 2, 2, 4, 4, 7, 7, 4)
	f.Add(8, 8, 9, 1, 1, 0, 8, 8, 3, 9, 70)
	f.Fuzz(func(t *testing.T, n, m, h, k, s, p, tm, tn, tr, tc, blocks int) {
		l := models.ConvLayer{
			Name: "fuzz",
			N:    1 + abs(n)%32,
			M:    1 + abs(m)%32,
			H:    1 + abs(h)%20,
			K:    1 + abs(k)%5,
			S:    1 + abs(s)%2,
			P:    abs(p) % 3,
		}
		l.L = l.H
		if l.K > l.H {
			l.K = l.H
		}
		if l.P >= l.K {
			l.P = l.K - 1
		}
		ti := Tiling{
			Tm: 1 + abs(tm)%l.M,
			Tn: 1 + abs(tn)%l.N,
			Tr: 1 + abs(tr)%l.R(),
			Tc: 1 + abs(tc)%l.C(),
		}
		if l.Validate() != nil || ti.Validate() != nil {
			t.Skip()
		}
		cfg := hw.TestAcceleratorEDRAM()
		trv := Traversal{Blocks: abs(blocks) % (MaxTraversalBlocks + 8)}
		for _, kind := range []Kind{ID, OD, WD} {
			a, err := AnalyzeTraversal(l, kind, ti, cfg, trv)
			if err != nil {
				t.Fatalf("%v %v: %v", kind, trv, err)
			}
			reused := garbageAnalysis()
			if err := AnalyzeTraversalInto(&reused, &l, kind, ti, &cfg, trv); err != nil {
				t.Fatalf("%v %v into garbage: %v", kind, trv, err)
			}
			if reused != a {
				t.Fatalf("%v %v: analysis into a garbage destination\n%+v\ndiffers from one into a zero value\n%+v", kind, trv, reused, a)
			}
			if a.MACs != l.MACs() {
				t.Fatalf("%v: MACs %d, layer has %d", kind, a.MACs, l.MACs())
			}
			if a.Cycles == 0 {
				t.Fatalf("%v: zero cycles", kind)
			}
			if min := a.MACs / uint64(cfg.PEs()); a.Cycles < min {
				t.Fatalf("%v: %d cycles below compute bound %d", kind, a.Cycles, min)
			}
			wantExec := time.Duration(float64(a.Cycles) / cfg.FrequencyHz * float64(time.Second))
			if d := a.ExecTime - wantExec; d < -time.Nanosecond || d > time.Nanosecond {
				t.Fatalf("%v: exec %v inconsistent with %d cycles (%v)", kind, a.ExecTime, a.Cycles, wantExec)
			}
			if a.Utilization <= 0 || a.Utilization > 1+1e-12 {
				t.Fatalf("%v: utilization %g", kind, a.Utilization)
			}
			if lt := a.Lifetimes.Max(); lt > a.ExecTime+time.Nanosecond {
				t.Fatalf("%v: lifetime %v exceeds exec %v", kind, lt, a.ExecTime)
			}
			if a.FitsBuffer != (a.BufferStorage.Total() <= cfg.BufferWords) {
				t.Fatalf("%v: FitsBuffer=%v but storage %d of %d",
					kind, a.FitsBuffer, a.BufferStorage.Total(), cfg.BufferWords)
			}
		}
	})
}

// garbageAnalysis is an Analysis with every leaf field non-zero: a field
// AnalyzeTraversalInto forgets to overwrite keeps its garbage here but
// stays zero in a fresh destination, so the two results differ.
func garbageAnalysis() Analysis {
	return Analysis{
		Layer:         models.ConvLayer{Name: "stale", Stage: "stale", N: 9, H: 9, L: 9, M: 9, K: 9, S: 9, P: 9, Groups: 9},
		Pattern:       Kind(9),
		Tiling:        Tiling{Tm: 9, Tn: 9, Tr: 9, Tc: 9},
		Traversal:     Traversal{Blocks: 9},
		MACs:          9,
		Cycles:        9,
		ExecTime:      9,
		Utilization:   9,
		BufferStorage: Storage{Inputs: 9, Outputs: 9, Weights: 9},
		FitsBuffer:    true,
		Feasible:      true,
		Lifetimes:     Lifetimes{Input: 9, Output: 9, Weight: 9},
		BufferTraffic: Storage{Inputs: 9, Outputs: 9, Weights: 9},
		DDRTraffic:    Storage{Inputs: 9, Outputs: 9, Weights: 9},
		BufferWrites:  9,
	}
}

// TestGarbageAnalysisCoversEveryField keeps garbageAnalysis honest as
// Analysis grows: every leaf field must be non-zero.
func TestGarbageAnalysisCoversEveryField(t *testing.T) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		if v.IsZero() {
			t.Errorf("garbageAnalysis leaves %s zero", path)
		}
	}
	walk("Analysis", reflect.ValueOf(garbageAnalysis()))
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}
