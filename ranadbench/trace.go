package main

// The traced run: request spans from the HTTP phase, then an in-process
// replay of every distinct body of the last round through the public
// functions ranad's request path calls, each call a child span.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rana/internal/core"
	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/platform"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/serve"
	"rana/internal/training"
	"rana/internal/verify"
)

// span is one timed call. Spans of one replayed body share Body; a
// child's Parent is its caller's ID (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Body   int     `json:"body"`
	Source string  `json:"source,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

const (
	// probeBodies and probeReps size the sequential loopback hit probe.
	probeBodies = 48
	probeReps   = 10
	// handlerReps is the in-process repetitions per body of each
	// microsecond-scale call.
	handlerReps = 10
	// maxReplayBodies bounds the replay phase.
	maxReplayBodies = 256
)

// distinct lists a round's bodies in order of first appearance, at most
// limit of them.
func distinct(p plan, limit int) []int {
	seen := map[int]bool{}
	var out []int
	for _, set := range [][]int{p.prime, p.order} {
		for _, b := range set {
			if !seen[b] && len(out) < limit {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// hitProbe sends each of the round's first distinct bodies several
// times in a row on one connection and keeps the latencies of hits.
func hitProbe(ctx context.Context, c *http.Client, base string, tr *traffic, p plan, epoch time.Time) map[int][]time.Duration {
	out := map[int][]time.Duration{}
	var buf bytes.Buffer
	for _, b := range distinct(p, probeBodies) {
		for i := 0; i < probeReps; i++ {
			r := send(ctx, c, base, tr.bodies[b], &buf, epoch)
			if r.err == nil && r.status == 200 && r.source == srcHit {
				out[b] = append(out[b], r.latency())
			}
		}
	}
	return out
}

// perLayer derives the per-layer metrics of a traced run.
func perLayer(ctx context.Context, opt options, tr *traffic, chk *checker, rounds []*roundResult, res *result) error {
	var all, hits, misses, traced, untraced []float64
	var srcs [len(sourceNames)]int
	var attempted, shed int
	var memoHits, prefixHits int64
	var spans []span
	for _, rr := range rounds {
		for i := range rr.recs {
			r := &rr.recs[i]
			attempted++
			srcs[r.source]++
			if r.status == http.StatusTooManyRequests {
				shed++
			}
			lat := rr.net(r.latency())
			all = append(all, ms(lat))
			switch r.source {
			case srcHit, srcStore:
				hits = append(hits, us(lat))
			case srcMiss, srcDedup:
				misses = append(misses, ms(lat))
			}
			switch {
			case rr == rounds[0]:
				// The first round runs on a cold page cache; it would
				// bias the untraced half.
			case rr.traced:
				traced = append(traced, ms(lat))
			default:
				untraced = append(untraced, ms(lat))
			}
		}
		memoHits += rr.counts.MemoHits
		prefixHits += rr.counts.PrefixHits
		// Request spans are numbered per round; renumber them run-wide.
		for _, s := range rr.spans {
			s.ID = len(spans) + 1
			spans = append(spans, s)
		}
	}
	sort.Float64s(all)
	sort.Float64s(hits)
	sort.Float64s(misses)
	n := float64(attempted)
	res.add("http.p90_ms", tail(all, 0.90), "ms")
	res.add("http.hit_samples", float64(len(hits)), "count")
	res.add("http.hit_p50_us", tail(hits, 0.50), "us")
	res.add("http.hit_p99_us", tail(hits, 0.99), "us")
	res.add("http.miss_samples", float64(len(misses)), "count")
	res.add("http.miss_p50_ms", tail(misses, 0.50), "ms")
	res.add("http.miss_p90_ms", tail(misses, 0.90), "ms")
	res.add("http.miss_p99_ms", tail(misses, 0.99), "ms")
	res.add("serve.lru_hit_ratio", float64(srcs[srcHit])/n, "ratio")
	res.add("serve.store_hit_ratio", float64(srcs[srcStore])/n, "ratio")
	res.add("serve.dedup_ratio", float64(srcs[srcDedup])/n, "ratio")
	res.add("serve.shed_ratio", float64(shed)/n, "ratio")
	res.add("serve.memo_hits", float64(memoHits), "count")
	res.add("serve.memo_prefix_hits", float64(prefixHits), "count")
	tp, up := median(traced), median(untraced)
	res.add("trace.overhead_pct", 100*(tp-up)/up, "%")
	res.add("host.steal_ratio", res.steal, "ratio")
	res.add("host.probe_us", res.probeUS, "us")

	// The replay covers the latest probed round's bodies.
	last := rounds[len(rounds)-1]
	for i := len(rounds) - 1; i >= 0 && last.probe == nil; i-- {
		if rounds[i].probe != nil {
			last = rounds[i]
		}
	}
	probe := map[int][]float64{}
	for b, lats := range last.probe {
		for _, d := range lats {
			probe[b] = append(probe[b], us(last.net(d)))
		}
	}
	rp := &replayer{ctx: ctx, tr: tr, chk: chk, epoch: time.Now(),
		memo: sched.NewMemo(0), prefix: sched.NewPrefixMemo(0)}
	total0, steal0, err := hostCPU()
	if err != nil {
		return err
	}
	speed := startSpeedProbe()
	defer speed.finish()
	if err := rp.run(distinct(last.plan, maxReplayBodies)); err != nil {
		return err
	}
	total1, steal1, err := hostCPU()
	if err != nil {
		return err
	}
	rp.report(res, probe, (1-(steal1-steal0)/max(total1-total0, 1))*probeRef/speed.finish())
	spans = append(spans, rp.spans...)
	return writeSpans(opt, spans)
}

// writeSpans fills in self times and writes the spans as JSON.
func writeSpans(opt options, spans []span) error {
	selfTimes(spans)
	path := filepath.Join(opt.work, fmt.Sprintf("trace-%s-seed%d.json", opt.workload.name, opt.seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sets each span's self time: its duration minus the part of
// its interval its children cover.
func selfTimes(spans []span) {
	children := map[int][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// replayer replays bodies in-process. Explorations share one memo and
// prefix memo, as ranad's computations do.
type replayer struct {
	ctx    context.Context
	tr     *traffic
	chk    *checker
	epoch  time.Time
	memo   *sched.Memo
	prefix *sched.PrefixMemo
	spans  []span

	handlerUS, handlerAllocs, handlerKB map[int]float64
	decodeUS, resolveUS, resolveAllocs  []float64
	restUS                              []float64
	exploreMS, exploreAllocs, exploreKB []float64
	compileMS                           []float64
	encodeUS, marshalUS, respKB         []float64
	checkUS, analyzeUS, analyzeAllocs   []float64
	search                              search.Stats
	searched                            int
	memoHits, memoLookups               int
	prefixHits, prefixLookups           uint64
	calls, gcCycles                     int
	heapPeak                            uint64
}

// replayIDs numbers replay spans after every HTTP span.
const replayIDs = 1 << 30

// begin opens a span and returns its index in rp.spans.
func (rp *replayer) begin(name string, parent, body int) int {
	rp.spans = append(rp.spans, span{ID: replayIDs + len(rp.spans), Parent: parent, Name: name, Body: body, Start: us(time.Since(rp.epoch))})
	return len(rp.spans) - 1
}

func (rp *replayer) end(i int) time.Duration {
	s := &rp.spans[i]
	s.End = us(time.Since(rp.epoch))
	return time.Duration((s.End - s.Start) * float64(time.Microsecond))
}

// memStats samples the allocator and the heap high-water mark.
func (rp *replayer) memStats() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rp.heapPeak = max(rp.heapPeak, m.HeapAlloc)
	return m.Mallocs, m.TotalAlloc
}

func (rp *replayer) run(bodies []int) error {
	srv := serve.New(serve.Config{})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	rp.handlerUS, rp.handlerAllocs, rp.handlerKB = map[int]float64{}, map[int]float64{}, map[int]float64{}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	keysDone := map[int]bool{}
	for _, b := range bodies {
		if err := rp.ctx.Err(); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		root := rp.begin("replay", 0, b)
		rootID := rp.spans[root].ID
		rp.hitPath(b, rootID, h)
		if k := rp.tr.bodies[b].key; !keysDone[k] {
			keysDone[k] = true
			if err := rp.compute(b, rootID); err != nil {
				rp.chk.fail("replay %s: %v", rp.tr.bodies[b].path, err)
			}
		}
		rp.end(root)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	rp.gcCycles = int(gc1.NumGC - gc0.NumGC)
	return nil
}

// decode is the strict decoding ranad applies to a body.
func decode(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// request is any of the three request bodies, decoded.
type request struct {
	schedule serve.ScheduleRequest
	compile  serve.CompileRequest
	evaluate serve.EvaluateRequest
}

func (q *request) decode(b body) error {
	switch b.path {
	case pathSchedule:
		q.schedule = serve.ScheduleRequest{}
		return decode(b.data, &q.schedule)
	case pathCompile:
		q.compile = serve.CompileRequest{}
		return decode(b.data, &q.compile)
	default:
		q.evaluate = serve.EvaluateRequest{}
		return decode(b.data, &q.evaluate)
	}
}

func (q *request) network(b body) (string, *serve.NetworkSpec) {
	switch b.path {
	case pathSchedule:
		return q.schedule.Model, q.schedule.Network
	case pathCompile:
		return q.compile.Model, q.compile.Network
	default:
		return q.evaluate.Model, q.evaluate.Network
	}
}

// resolveNetwork is what ranad does with a request's network: find the
// named zoo model among freshly built benchmarks, or build and validate
// the spelled-out one.
func resolveNetwork(model string, spec *serve.NetworkSpec) (models.Network, error) {
	if model != "" {
		for _, n := range models.Benchmarks() {
			if n.Name == model {
				return n, nil
			}
		}
		return models.Network{}, fmt.Errorf("unknown model %q", model)
	}
	net := models.Network{Name: spec.Name}
	for _, l := range spec.Layers {
		net.Layers = append(net.Layers, models.ConvLayer{Name: l.Name, Stage: l.Stage,
			N: l.N, H: l.H, L: l.L, M: l.M, K: l.K, S: l.S, P: l.P, Groups: l.Groups})
	}
	return net, net.Validate()
}

// hitPath times the cache-hit path of one body: ranad's whole handler
// on a warm in-process server, and the decode and network resolution
// it starts with.
func (rp *replayer) hitPath(bi, root int, h http.Handler) {
	b := rp.tr.bodies[bi]
	want := rp.chk.ref[b.key]
	warm := httptest.NewRecorder()
	s := rp.begin("serve.handler_warm", root, bi)
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, b.path, bytes.NewReader(b.data)))
	rp.end(s)
	if !bytes.Equal(warm.Body.Bytes(), want) {
		rp.chk.fail("replay %s: in-process handler body differs from ranad's", b.path)
	}
	reqs := make([]*http.Request, handlerReps)
	recs := make([]*httptest.ResponseRecorder, handlerReps)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, b.path, bytes.NewReader(b.data))
		recs[i] = httptest.NewRecorder()
	}
	lat := make([]float64, handlerReps)
	m0, b0 := rp.memStats()
	for i := range reqs {
		s := rp.begin("serve.handler", root, bi)
		h.ServeHTTP(recs[i], reqs[i])
		lat[i] = us(rp.end(s))
	}
	m1, b1 := rp.memStats()
	for _, rec := range recs {
		if rec.Header().Get("X-Rana-Cache") != "hit" {
			rp.chk.fail("replay %s: warm in-process handler missed", b.path)
			break
		}
	}
	rp.handlerUS[bi] = median(lat)
	rp.handlerAllocs[bi] = float64(m1-m0) / handlerReps
	rp.handlerKB[bi] = float64(b1-b0) / handlerReps / 1024
	rp.calls += handlerReps + 1

	var q request
	dec := make([]float64, handlerReps)
	for i := range dec {
		s := rp.begin("serve.decode", root, bi)
		if err := q.decode(b); err != nil {
			rp.chk.fail("replay %s: decode: %v", b.path, err)
			return
		}
		dec[i] = us(rp.end(s))
	}
	model, spec := q.network(b)
	res := make([]float64, handlerReps)
	m0, _ = rp.memStats()
	for i := range res {
		s := rp.begin("models.resolve", root, bi)
		if _, err := resolveNetwork(model, spec); err != nil {
			rp.chk.fail("replay %s: resolve: %v", b.path, err)
			return
		}
		res[i] = us(rp.end(s))
	}
	m1, _ = rp.memStats()
	d, r := median(dec), median(res)
	rp.decodeUS = append(rp.decodeUS, d)
	rp.resolveUS = append(rp.resolveUS, r)
	rp.resolveAllocs = append(rp.resolveAllocs, float64(m1-m0)/handlerReps)
	rp.restUS = append(rp.restUS, rp.handlerUS[bi]-d-r)
}

// compute re-runs the computation behind one key in-process, checks
// that it encodes to ranad's bytes and passes verify.CheckPlan, and
// times each step.
func (rp *replayer) compute(bi, root int) error {
	b := rp.tr.bodies[bi]
	var q request
	if err := q.decode(b); err != nil {
		return err
	}
	net, err := resolveNetwork(q.network(b))
	if err != nil {
		return err
	}
	var plan *sched.Plan
	var encodeResp func(sched.PlanJSON) any
	rp.calls++
	m0, b0 := rp.memStats()
	switch b.path {
	case pathSchedule:
		cfg, opts, ctrl, err := scheduleInputs(q.schedule, net)
		if err != nil {
			return err
		}
		opts.Memo, opts.Prefix = rp.memo, rp.prefix
		s := rp.begin("sched.explore", root, bi)
		p, ns, err := sched.ExploreNetworkContext(rp.ctx, net, cfg, opts)
		d := rp.end(s)
		if err != nil {
			return err
		}
		m1, b1 := rp.memStats()
		rp.exploreMS = append(rp.exploreMS, ms(d))
		rp.exploreAllocs = append(rp.exploreAllocs, float64(m1-m0))
		rp.exploreKB = append(rp.exploreKB, float64(b1-b0)/1024)
		rp.addStats(ns)
		plan = p
		encodeResp = func(pj sched.PlanJSON) any {
			return serve.ScheduleResponse{Accelerator: cfg.Name, RefreshIntervalNS: int64(opts.RefreshInterval),
				Controller: ctrl, Plan: pj, Search: string(opts.Search.Resolve())}
		}
	case pathCompile:
		f := core.New()
		f.Memo, f.Prefix = rp.memo, rp.prefix
		s := rp.begin("core.compile", root, bi)
		out, err := f.CompileContext(rp.ctx, net)
		d := rp.end(s)
		if err != nil {
			return err
		}
		rp.compileMS = append(rp.compileMS, ms(d))
		rp.addStats(out.Stats)
		var artifact bytes.Buffer
		if err := out.ExportConfig(&artifact); err != nil {
			return err
		}
		plan = out.Plan
		encodeResp = func(pj sched.PlanJSON) any {
			return serve.CompileResponse{TolerableRate: out.TolerableRate,
				TolerableRetentionNS: out.TolerableRetention.Nanoseconds(), DividerRatio: out.DividerRatio,
				EnergyPJ: out.Energy.Total(), Artifact: json.RawMessage(artifact.Bytes()), Plan: pj}
		}
	default:
		d, ok := platform.DesignByName(q.evaluate.Design)
		if !ok {
			return fmt.Errorf("unknown design %q", q.evaluate.Design)
		}
		d = d.WithBackend(q.evaluate.Backend, q.evaluate.OperatingPoint)
		s := rp.begin("platform.evaluate", root, bi)
		res, err := platform.Test().EvaluateContext(rp.ctx, d, net)
		rp.end(s)
		if err != nil {
			return err
		}
		plan = res.Plan
		e := res.Energy()
		encodeResp = func(pj sched.PlanJSON) any {
			return serve.EvaluateResponse{Design: d.Name, Network: net.Name, Plan: pj,
				Energy: serve.EnergyJSON{Computing: e.Computing, BufferAccess: e.BufferAccess,
					Refresh: e.Refresh, OffChip: e.OffChip, Wear: e.Wear, Total: e.Total()}}
		}
	}

	s := rp.begin("sched.encode", root, bi)
	pj := sched.Encode(plan)
	rp.encodeUS = append(rp.encodeUS, us(rp.end(s)))
	s = rp.begin("serve.marshal", root, bi)
	data, err := json.Marshal(encodeResp(pj))
	rp.marshalUS = append(rp.marshalUS, us(rp.end(s)))
	if err != nil {
		return err
	}
	data = append(data, '\n')
	rp.respKB = append(rp.respKB, float64(len(data))/1024)
	if !bytes.Equal(data, rp.chk.ref[b.key]) {
		return fmt.Errorf("re-explored plan does not encode to ranad's bytes")
	}

	s = rp.begin("verify.checkplan", root, bi)
	vs := verify.CheckPlan(plan, verify.DefaultTolerances())
	rp.checkUS = append(rp.checkUS, us(rp.end(s)))
	if len(vs) > 0 {
		return fmt.Errorf("CheckPlan: %d violations, first %+v", len(vs), vs[0])
	}
	return rp.analyze(plan, bi, root)
}

// analyze runs the traversal analysis over each layer's chosen pattern
// and tiling under every order of the RTC ladder.
func (rp *replayer) analyze(plan *sched.Plan, bi, root int) error {
	ladder, err := sched.ParseTraversalSpec("rtc")
	if err != nil {
		return err
	}
	calls := 0
	m0, _ := rp.memStats()
	s := rp.begin("pattern.analyze", root, bi)
	for i, lp := range plan.Layers {
		for _, trv := range ladder {
			if _, err := pattern.AnalyzeTraversal(plan.Network.Layers[i], lp.Analysis.Pattern, lp.Analysis.Tiling, plan.Config, trv); err != nil {
				rp.end(s)
				return fmt.Errorf("AnalyzeTraversal: %w", err)
			}
			calls++
		}
	}
	d := rp.end(s)
	m1, _ := rp.memStats()
	rp.analyzeUS = append(rp.analyzeUS, us(d)/float64(calls))
	rp.analyzeAllocs = append(rp.analyzeAllocs, float64(m1-m0)/float64(calls))
	return nil
}

func (rp *replayer) addStats(ns sched.NetworkStats) {
	rp.search.Add(ns.Search)
	rp.searched++
	rp.memoHits += ns.MemoHits
	rp.memoLookups += ns.MemoHits + ns.MemoMisses
	rp.prefixHits += ns.PrefixHits
	rp.prefixLookups += ns.PrefixHits + ns.PrefixMisses
}

// scheduleInputs resolves a schedule request the way ranad does, for
// the option sets the workloads send.
func scheduleInputs(req serve.ScheduleRequest, net models.Network) (hw.Config, sched.Options, string, error) {
	var cfg hw.Config
	switch req.Accelerator {
	case "", "test-edram":
		cfg = hw.TestAcceleratorEDRAM()
	case "test":
		cfg = hw.TestAccelerator()
	default:
		return cfg, sched.Options{}, "", fmt.Errorf("replay does not cover accelerator %q", req.Accelerator)
	}
	spec := serve.OptionsSpec{}
	if req.Options != nil {
		spec = *req.Options
	}
	opts := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: time.Duration(spec.RefreshIntervalNS),
		Backend:         spec.Backend,
		Traversal:       spec.Traversal,
		Mapping:         spec.Mapping,
	}
	if opts.RefreshInterval == 0 {
		opts.RefreshInterval = retention.TolerableRetentionTime
	}
	ctrl := spec.Controller
	if ctrl == "" {
		ctrl = "none"
		if cfg.BufferTech == energy.EDRAM {
			ctrl = "optimized"
		}
	}
	switch ctrl {
	case "none":
		opts.RefreshInterval = 0
	case "conventional":
		opts.Controller = memctrl.Conventional{}
	case "optimized":
		opts.Controller = memctrl.RefreshOptimized{}
	default:
		return cfg, opts, "", fmt.Errorf("replay does not cover controller %q", ctrl)
	}
	// Stage 1's per-layer budgets ride along on the approximate axis.
	if _, pts, err := sched.ResolveBackend(cfg, opts); err == nil {
		for _, p := range pts {
			if p.BitErrorRate > 0 {
				names := make([]string, len(net.Layers))
				for i, l := range net.Layers {
					names[i] = l.Name
				}
				budgets, err := training.LayerTolerableRates(net.Name, names, 0.995, training.PaperRates)
				if err != nil {
					return cfg, opts, "", err
				}
				opts.LayerBudgets = budgets
				break
			}
		}
	}
	name := "none"
	if opts.Controller != nil {
		name = opts.Controller.Name()
	}
	return cfg, opts, name, nil
}

// report adds the replay's per-layer metrics, with times scaled by net:
// the share of the replay's CPU time the host did not steal, times the
// reference speed over the replay's measured speed (see speed.go). probe
// holds the loopback hit latencies, in microseconds net of steal and
// speed drift, of the same bodies.
func (rp *replayer) report(res *result, probe map[int][]float64, net float64) {
	var overhead []float64
	for b, lats := range probe {
		if h, ok := rp.handlerUS[b]; ok && len(lats) > 0 {
			overhead = append(overhead, median(lats)-h*net)
		}
	}
	t := func(v float64) float64 { return v * net }
	values := func(m map[int]float64) []float64 {
		var out []float64
		for _, v := range m {
			out = append(out, v)
		}
		return out
	}
	res.add("http.hit_overhead_us", median(overhead), "us")
	res.add("serve.handler_hit_us", t(median(values(rp.handlerUS))), "us")
	res.add("serve.handler_hit_allocs", median(values(rp.handlerAllocs)), "count")
	res.add("serve.handler_hit_kb", median(values(rp.handlerKB)), "KB")
	res.add("serve.decode_us", t(median(rp.decodeUS)), "us")
	res.add("models.resolve_us", t(median(rp.resolveUS)), "us")
	res.add("models.resolve_allocs", median(rp.resolveAllocs), "count")
	res.add("serve.hit_rest_us", t(median(rp.restUS)), "us")
	res.add("sched.explore_ms", t(median(rp.exploreMS)), "ms")
	res.add("sched.explore_allocs", median(rp.exploreAllocs), "count")
	res.add("sched.explore_kb", median(rp.exploreKB), "KB")
	res.add("sched.memo_hit_ratio", ratio(float64(rp.memoHits), float64(rp.memoLookups)), "ratio")
	res.add("sched.prefix_hit_ratio", ratio(float64(rp.prefixHits), float64(rp.prefixLookups)), "ratio")
	per := float64(max(rp.searched, 1))
	res.add("search.candidates", float64(rp.search.Candidates)/per, "count")
	res.add("search.bounded", float64(rp.search.Bounded)/per, "count")
	res.add("search.pruned", float64(rp.search.Pruned)/per, "count")
	res.add("search.evaluated", float64(rp.search.Evaluated)/per, "count")
	res.add("search.prune_ratio", ratio(float64(rp.search.Pruned), float64(rp.search.Candidates)), "ratio")
	res.add("pattern.analyze_us", t(median(rp.analyzeUS)), "us")
	res.add("pattern.analyze_allocs", median(rp.analyzeAllocs), "count")
	res.add("sched.encode_us", t(median(rp.encodeUS)), "us")
	res.add("serve.marshal_us", t(median(rp.marshalUS)), "us")
	res.add("serve.resp_kb", median(rp.respKB), "KB")
	res.add("core.compile_ms", t(median(rp.compileMS)), "ms")
	res.add("verify.checkplan_us", t(median(rp.checkUS)), "us")
	res.add("go.gc_cycles_per_kreq", float64(rp.gcCycles)/float64(max(rp.calls, 1))*1000, "count")
	res.add("go.heap_peak_mb", float64(rp.heapPeak)/(1<<20), "MB")
	res.add("trace.replay_self_us", t(median(rp.rootSelf())), "us")
}

// rootSelf is each replay root's self time: the benchmark's own glue
// between the timed calls.
func (rp *replayer) rootSelf() []float64 {
	selfTimes(rp.spans)
	var out []float64
	for _, s := range rp.spans {
		if s.Parent == 0 {
			out = append(out, s.Self)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
