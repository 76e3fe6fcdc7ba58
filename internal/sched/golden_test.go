package sched

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

var update = flag.Bool("update", false, "rewrite the golden schedule files")

// The serialized regression view of a compiled schedule is the exported
// wire encoding (encode.go) — the same format `rana-sched -json` and the
// ranad serving API emit, so a golden diff here also means a wire-format
// change for every consumer.

// TestGoldenSchedules pins the full RANA design point's compiled schedule
// for every benchmark network under every search strategy. Exhaustive
// and Pruned share the `golden` files (branch-and-bound is argmin-
// preserving, so a split between them is itself a regression). Any
// change to pattern selection, tiling
// search, refresh-flag computation or the energy model shows up as a
// golden diff; run `go test ./internal/sched -update` to accept it.
//
// The `axes` goldens pin the same zoo with the traversal and mapping
// axes open (the RTC ladder × every mapping policy) at both retention
// design points: the conventional controller at the 45 µs interval,
// where blocked traversals win, and the refresh-optimized controller at
// 734 µs. They guard the exact evaluator's per-coordinate reuse, which
// only ever runs with more than one mapping cell.
func TestGoldenSchedules(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	base := Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}
	conv45 := base
	conv45.RefreshInterval = 45 * time.Microsecond
	conv45.Controller = memctrl.Conventional{}
	conv45.Traversal, conv45.Mapping = "rtc", "all"
	opt734 := base
	opt734.Traversal, opt734.Mapping = "rtc", "all"
	suites := []struct {
		name string // golden file name suffix; the default suite has none
		sub  string // subdirectory of testdata/golden
		opts Options
	}{
		{"", "", base},
		{"conv45", "axes", conv45},
		{"opt734", "axes", opt734},
	}
	cases := []struct {
		strategy search.Strategy
		write    bool // which run regenerates the file under -update
	}{
		{search.Exhaustive, true},
		{search.Pruned, false},
	}
	for _, su := range suites {
		for _, c := range cases {
			opts := su.opts
			opts.Search = c.strategy
			for _, net := range models.Benchmarks() {
				name := net.Name
				if su.name != "" {
					name += "-" + su.name
				}
				path := filepath.Join("testdata", "golden", su.sub, name+".json")
				t.Run(filepath.Join(string(c.strategy), su.sub, name), func(t *testing.T) {
					checkGolden(t, path, net, cfg, opts, *update && c.write)
				})
			}
		}
	}
}

// checkGolden compiles net and compares its wire encoding against the
// golden file at path, or rewrites the file when write is set.
func checkGolden(t *testing.T, path string, net models.Network, cfg hw.Config, opts Options, write bool) {
	plan, err := Schedule(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(Encode(plan), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if write {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s schedule for %s drifted from %s; run `go test ./internal/sched -update` if intended.\ngot:\n%s",
			opts.Search, net.Name, path, got)
	}
}
