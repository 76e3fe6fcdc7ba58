// Command ranadbench is the repository's end-to-end benchmark: it drives
// the real ranad binary over loopback HTTP with seeded traffic, checks
// every response, and prints latency, throughput, server CPU and memory
// per workload. With -trace 1 it prints per-layer metrics instead, from
// spans around the HTTP requests and an in-process replay of every
// distinct request through the packages ranad is built from.
//
// Run it from the repository root through run.sh, which builds ranad and
// this program first:
//
//	bash ranadbench/run.sh --workload churn --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the JSON result; README.md lists
// the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// minRounds fresh ranad processes serve every run, so set-up time is a
// median of several.
const minRounds = 3

// runBudget bounds a whole run, leaving margin under the 180 s limit.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  time.Duration
	trace    bool
	ranad    string // the ranad binary
	root     string // repository root, for the golden plans
	work     string // scratch directory for stores and the trace file
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ranadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "traffic mix: hit-zoo, churn or axes-open")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "timed traffic per run, in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	ranadBin := fs.String("ranad", ".bench_build/ranad", "ranad binary")
	root := fs.String("root", ".", "repository root")
	work := fs.String("work", ".bench_build", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ranadbench: need -workload hit-zoo|churn|axes-open, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	opt := options{workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, ranad: *ranadBin, root: *root, work: *work}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := bench(ctx, opt)
	if err != nil {
		fmt.Fprintln(stderr, "ranadbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "ranadbench: check failed:", n)
	}
	fmt.Fprintf(stdout, "ranadbench: %s seed %d: %d rounds of a fresh ranad, %d timed requests, host steal %.3f, speed probe %.0f us (reference %.0f)\n",
		w.name, opt.seed, res.rounds, res.attempted, res.steal, res.probeUS, probeRef)
	if res.measured != "" {
		fmt.Fprintf(stdout, "ranadbench: %s\n", res.measured)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "%-28s %14.6g (failed %d of %d attempted)\n", "fail_ratio",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ranadbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	rounds    int
	attempted int
	failed    int
	steal     float64 // median host steal share over the rounds
	probeUS   float64 // median speed-probe kernel time over the rounds
	measured  string  // uncorrected figures, for the human-readable output
	// runFailed marks a failure of the run as a whole, such as counts
	// that do not reconcile with ranad's.
	runFailed bool
	notes     []string
	metrics   []metric
}

func (r *result) correct() bool { return r.failed == 0 && !r.runFailed }

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) failRun(format string, args ...any) {
	r.runFailed = true
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// bench runs the rounds of one workload and derives its metrics.
func bench(ctx context.Context, opt options) (*result, error) {
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(opt.ranad); err != nil {
		return nil, fmt.Errorf("ranad binary: %w", err)
	}
	tr := newTraffic()
	chk, err := newChecker(opt.root, tr)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var rounds []*roundResult
	var timed, lastWindow time.Duration
	var steal, probes []float64
	for r := 0; r < minRounds || timed < opt.seconds; r++ {
		// In a traced run, rounds alternate with spans off and on, so
		// the two halves give the tracing overhead, and the rounds that
		// are likely the last get the hit probe the replay compares with.
		traced := opt.trace && r%2 == 1
		probe := opt.trace && r >= minRounds-1 && timed+2*lastWindow >= opt.seconds
		rr, err := runRound(ctx, opt, tr, chk, r, traced, probe)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		for _, n := range rr.notes {
			res.failRun("round %d: %s", r, n)
		}
		rounds = append(rounds, rr)
		timed += rr.window
		lastWindow = rr.window
		res.attempted += len(rr.recs)
		steal = append(steal, rr.steal)
		probes = append(probes, rr.probeUS)
	}
	res.rounds = len(rounds)
	res.steal = median(steal)
	res.probeUS = median(probes)
	if opt.trace {
		if err := perLayer(ctx, opt, tr, chk, rounds, res); err != nil {
			return nil, err
		}
	} else {
		endToEnd(rounds, chk, res)
	}
	res.failed = chk.failed
	res.notes = append(res.notes, chk.notes...)
	return res, nil
}

// endToEnd derives the user-visible metrics from the HTTP rounds: each
// is the median over rounds of the round's own figure, so a round hit by
// a burst of host contention does not move it. Times are net of host
// steal and speed drift (see roundResult.net).
func endToEnd(rounds []*roundResult, chk *checker, res *result) {
	var setup, rps, p50, cpu, rss, rawRPS, rawCPU []float64
	for _, rr := range rounds {
		n := float64(len(rr.recs))
		setup = append(setup, rr.net(rr.setup).Seconds())
		rps = append(rps, n/rr.net(rr.window).Seconds())
		rawRPS = append(rawRPS, n/rr.window.Seconds())
		rawCPU = append(rawCPU, us(rr.cpu)/n)
		lats := make([]float64, len(rr.recs))
		for i := range rr.recs {
			lats[i] = ms(rr.net(rr.recs[i].latency()))
		}
		sort.Float64s(lats)
		p50 = append(p50, quantile(lats, 0.50))
		cpu = append(cpu, us(rr.net(rr.cpu))/n)
		rss = append(rss, float64(rr.rss)/(1<<20))
	}
	res.measured = fmt.Sprintf("before the steal and speed corrections: rps %.6g req/s, server_cpu_us_per_req %.6g us",
		median(rawRPS), median(rawCPU))
	res.add("setup_s", median(setup), "s")
	res.add("rps", median(rps), "req/s")
	res.add("latency_p50_ms", median(p50), "ms")
	res.add("server_cpu_us_per_req", median(cpu), "us")
	res.add("server_peak_rss_mb", median(rss), "MB")
	pj, err := chk.planPJPerMAC()
	if err != nil {
		res.failRun("%v", err)
	}
	res.add("plan_pj_per_mac", pj, "pJ/MAC")
}

// roundResult is one fresh ranad process's share of a run.
type roundResult struct {
	plan   plan
	traced bool
	setup  time.Duration
	window time.Duration
	cpu    time.Duration
	rss    int64
	// steal is the share of the machine's CPU time the hypervisor took
	// from set-up to the end of the timed window.
	steal float64
	// probeUS is the speed probe's median kernel time over the same
	// span, in microseconds.
	probeUS float64
	recs    []record
	counts  serverCounts
	// spans are the traced rounds' request spans.
	spans []span
	// probe holds sequential loopback hit latencies per body, taken
	// after the timed window of a traced run's last rounds.
	probe map[int][]time.Duration
	notes []string
}

// net removes host steal and speed drift from a time measured in this
// round. On a shared virtual machine the hypervisor's steal swings
// between rounds and stretches wall-clock and process CPU times alike
// (ranad's CPU time per request tracks 1/(1-steal)); at zero steal the
// vCPU's speed still drifts, and ranad's CPU time per request tracks the
// speed probe's kernel time (see speed.go). So every time is reported as
// if the machine had been the benchmark's alone and ran at the reference
// speed. Without steal, at the reference speed, it is the identity.
func (rr *roundResult) net(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 - rr.steal) * probeRef / rr.probeUS)
}

func runRound(ctx context.Context, opt options, tr *traffic, chk *checker, r int, traced, probe bool) (*roundResult, error) {
	w := opt.workload
	rr := &roundResult{plan: w.round(tr, opt.seed, r), traced: traced}
	var args []string
	if w.store {
		dir, err := os.MkdirTemp(opt.work, "store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		args = append(args, "-store", filepath.Join(dir, "plans.log"))
	}
	client := newClient(w.conns)
	defer client.CloseIdleConnections()

	total0, steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	speed := startSpeedProbe()
	defer speed.finish()
	start := time.Now()
	d, err := startRanad(ctx, opt.ranad, args...)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	if err := d.waitHealthy(ctx, client); err != nil {
		return nil, err
	}
	prime := sendAll(ctx, client, d.base, tr, rr.plan.prime, start)
	rr.setup = time.Since(start)

	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	rr.recs, rr.spans = drive(ctx, client, d.base, tr, rr.plan.order, w.conns, epoch, traced)
	rr.window = time.Since(epoch)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	total1, steal1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	rr.probeUS = speed.finish()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rr.cpu = cpu1 - cpu0
	if total1 > total0 {
		rr.steal = (steal1 - steal0) / (total1 - total0)
	}
	if rr.counts, err = d.metrics(ctx, client); err != nil {
		return nil, err
	}
	rr.reconcile(prime)
	// The golden plans are checked in every round, after the scrape so
	// they do not enter the reconciled counts.
	post := sendAll(ctx, client, d.base, tr, tr.zooDefault, epoch)
	if probe {
		rr.probe = hitProbe(ctx, client, d.base, tr, rr.plan, epoch)
	}
	if rr.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		rr.notes = append(rr.notes, fmt.Sprintf("ranad did not exit cleanly: %v: %s", err, lastLine(d.stderr.String())))
	}
	chk.checkAll(prime, false)
	chk.checkAll(rr.recs, w.allHits)
	chk.checkAll(post, false)
	return rr, nil
}

// reconcile compares the client's cache-source counts over the priming
// and timed requests with ranad's /metrics counters.
func (rr *roundResult) reconcile(prime []record) {
	var got [len(sourceNames)]int64
	for _, recs := range [][]record{prime, rr.recs} {
		for i := range recs {
			if recs[i].status == 200 {
				got[recs[i].source]++
			}
		}
	}
	c := rr.counts
	for _, x := range []struct {
		name        string
		client, srv int64
	}{
		{"cache_hits", got[srcHit], c.Hits},
		{"cache_misses", got[srcMiss], c.Misses},
		{"deduped", got[srcDedup], c.Deduped},
		{"store_hits", got[srcStore], c.StoreHits},
	} {
		if x.client != x.srv {
			rr.notes = append(rr.notes, fmt.Sprintf("%s: client counted %d, ranad %d", x.name, x.client, x.srv))
		}
	}
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
