package main

import (
	"bytes"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// build returns every body and plan of the first rounds of a workload.
func build(w workload, seed int64, rounds int) (*traffic, []plan) {
	tr := newTraffic()
	var ps []plan
	for r := 0; r < rounds; r++ {
		ps = append(ps, w.round(tr, seed, r))
	}
	return tr, ps
}

func sameTraffic(a, b *traffic, pa, pb []plan) bool {
	if len(a.bodies) != len(b.bodies) || len(pa) != len(pb) {
		return false
	}
	for i := range a.bodies {
		x, y := a.bodies[i], b.bodies[i]
		if x.path != y.path || x.key != y.key || x.golden != y.golden || !bytes.Equal(x.data, y.data) {
			return false
		}
	}
	for r := range pa {
		if !equalInts(pa[r].prime, pb[r].prime) || !equalInts(pa[r].order, pb[r].order) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, pa := build(w, 7, 3)
			b, pb := build(w, 7, 3)
			if !sameTraffic(a, b, pa, pb) {
				t.Fatal("one seed built two different traffics")
			}
			c, pc := build(w, 8, 3)
			if sameTraffic(a, c, pa, pc) {
				t.Fatal("two seeds built the same traffic")
			}
		})
	}
}

// ranadDefaultCache reads the LRU capacity ranad runs with when no
// -cache flag is given, from its own help text.
func ranadDefaultCache(t *testing.T) int {
	t.Helper()
	bin := t.TempDir() + "/ranad"
	build := exec.Command("go", "build", "-o", bin, "./cmd/rana-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ranad: %v\n%s", err, out)
	}
	help, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by flag convention
	m := regexp.MustCompile(`(?m)^\s*-cache int\n.*\(default (\d+)\)`).FindSubmatch(help)
	if m == nil {
		t.Fatalf("no -cache default in ranad -h:\n%s", help)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestChurnKeySpaceExceedsDefaultLRU pins churn's premise: its key space,
// and even one round's distinct keys, outgrow ranad's default LRU, so
// churn exercises eviction and the store. Growing the default LRU past
// them fails this test instead of silently turning churn into hits.
func TestChurnKeySpaceExceedsDefaultLRU(t *testing.T) {
	lru := ranadDefaultCache(t)
	nets := churnKeySpace(1)
	seen := map[string]bool{}
	for _, n := range nets {
		seen[n.Name] = true
	}
	if len(seen) != churnNetworks || churnNetworks <= lru {
		t.Fatalf("churn has %d distinct networks; ranad's default LRU holds %d", len(seen), lru)
	}
	tr, ps := build(workloads[1], 1, 1)
	keys := map[int]bool{}
	for _, b := range ps[0].order {
		keys[tr.bodies[b].key] = true
	}
	if len(keys) <= lru {
		t.Fatalf("one churn round touches %d keys; ranad's default LRU holds %d", len(keys), lru)
	}
}
