package serve

// Tests of the body alias: a repeat of the exact bytes of a request that
// already resolved to a cached key is served from the LRU by digest.
// The alias must be indistinguishable from the full-path hit it stands
// for — status, bytes, headers and every /metrics counter — and must
// never outlive, outgrow or misdirect the LRU entry it points at.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rana/internal/core"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

// spelledNetwork renders a network as the "network" field of a request:
// the same shapes a "model" name resolves to, layer by layer.
func spelledNetwork(net models.Network) string {
	spec := NetworkSpec{Name: net.Name}
	for _, l := range net.Layers {
		spec.Layers = append(spec.Layers, LayerSpec{Name: l.Name, Stage: l.Stage,
			N: l.N, H: l.H, L: l.L, M: l.M, K: l.K, S: l.S, P: l.P, Groups: l.Groups})
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// hitMixBodies is the body set of a fleet re-requesting the zoo: every
// network by name and spelled out, on all three keyed endpoints.
func hitMixBodies() []struct{ path, body string } {
	var out []struct{ path, body string }
	for _, net := range models.Benchmarks() {
		named := fmt.Sprintf(`"model": %q`, net.Name)
		spelled := `"network": ` + spelledNetwork(net)
		for _, n := range []string{named, spelled} {
			out = append(out,
				struct{ path, body string }{"/v1/schedule", "{" + n + "}"},
				struct{ path, body string }{"/v1/compile", "{" + n + "}"},
				struct{ path, body string }{"/v1/evaluate", `{"design": "RANA*(E-5)", ` + n + "}"})
		}
	}
	return out
}

// exchange is one response as a client sees it.
type exchange struct {
	status      int
	body        []byte
	source, key string
}

func send(t testing.TB, url, body, forwardedBy string) exchange {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if forwardedBy != "" {
		req.Header.Set(ForwardedHeader, forwardedBy)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return exchange{resp.StatusCode, b, resp.Header.Get("X-Rana-Cache"), resp.Header.Get("X-Rana-Key")}
}

// counters flattens the integer counters of /metrics, nested maps
// ("statuses", "parallelism") included; the latency quantiles are
// dropped — they are samples, not counts.
func counters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(readBody(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range doc {
		switch v := v.(type) {
		case float64:
			if !strings.HasPrefix(k, "latency_") {
				out[k] = v
			}
		case map[string]any:
			for sk, sv := range v {
				if f, ok := sv.(float64); ok {
					out[k+"."+sk] = f
				}
			}
		}
	}
	return out
}

// delta is after - before over the union of their keys.
func delta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	for k, v := range before {
		if _, ok := after[k]; !ok {
			d[k] = -v
		}
	}
	return d
}

// TestAliasHitMatchesFullPathHit is the alias's differential: after a
// miss, the same request re-spelled with extra whitespace is a hit
// through decode, resolution and the canonical key, and the exact bytes
// again are a hit by digest. The two hits must agree on everything a
// client or an operator can observe, the alias counters aside.
func TestAliasHitMatchesFullPathHit(t *testing.T) {
	alexSpelled := `"network": ` + spelledNetwork(models.AlexNet())
	cases := []struct {
		name, path, body string
		cfg              Config
		forwardedBy      string
	}{
		{name: "schedule named zoo", path: "/v1/schedule", body: `{"model": "AlexNet"}`},
		{name: "schedule spelled zoo", path: "/v1/schedule", body: "{" + alexSpelled + "}"},
		{name: "compile named zoo", path: "/v1/compile", body: `{"model": "AlexNet"}`},
		{name: "compile spelled zoo", path: "/v1/compile", body: "{" + alexSpelled + "}"},
		{name: "evaluate approx-dram", path: "/v1/evaluate",
			body: `{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "approx-dram"}`},
		{name: "deadline degraded", path: "/v1/schedule",
			body: `{"network": ` + tinyNetJSON + `, "deadline_ms": 5000}`,
			cfg:  Config{DegradeBudget: time.Minute, RequestTimeout: 2 * time.Minute}},
		{name: "budget fallback", path: "/v1/schedule",
			body: `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`},
		{name: "forwarded", path: "/v1/schedule", body: `{"model": "VGG"}`, forwardedBy: "peer-a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			url := ts.URL + tc.path
			if miss := send(t, url, tc.body, tc.forwardedBy); miss.status != http.StatusOK || miss.source != "miss" {
				t.Fatalf("priming request: status %d source %q: %s", miss.status, miss.source, miss.body)
			}

			m0 := counters(t, ts.URL)
			full := send(t, url, " \n"+tc.body+"\n ", tc.forwardedBy)
			m1 := counters(t, ts.URL)
			alias := send(t, url, tc.body, tc.forwardedBy)
			m2 := counters(t, ts.URL)

			if full.status != http.StatusOK || full.source != "hit" {
				t.Fatalf("re-spelled request: status %d source %q, want a 200 hit", full.status, full.source)
			}
			if alias.status != full.status || !bytes.Equal(alias.body, full.body) ||
				alias.source != full.source || alias.key != full.key {
				t.Errorf("alias hit (%d, %s, %s) differs from the full-path hit (%d, %s, %s)",
					alias.status, alias.source, alias.key, full.status, full.source, full.key)
			}

			dFull, dAlias := delta(m0, m1), delta(m1, m2)
			if dFull["alias_hits"] != 0 || dAlias["alias_hits"] != 1 {
				t.Fatalf("alias_hits moved %v on the re-spelled request and %v on the repeat, want 0 and 1",
					dFull["alias_hits"], dAlias["alias_hits"])
			}
			if dFull["alias_entries"] != 1 || dAlias["alias_entries"] != 0 {
				t.Errorf("alias_entries moved %v and %v, want 1 (the new spelling) and 0",
					dFull["alias_entries"], dAlias["alias_entries"])
			}
			for _, d := range []map[string]float64{dFull, dAlias} {
				delete(d, "alias_hits")
				delete(d, "alias_entries")
			}
			if !reflect.DeepEqual(dFull, dAlias) {
				t.Errorf("/metrics deltas differ:\nfull path %v\nalias     %v", dFull, dAlias)
			}
			if dFull["cache_hits"] != 1 {
				t.Errorf("cache_hits moved %v on a hit", dFull["cache_hits"])
			}
		})
	}
}

// TestAliasNeverRemembersAFailure: a body that failed is never aliased,
// so it fails through the full path again, however often it repeats.
func TestAliasNeverRemembersAFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/schedule", `{"model": "LeNet"}`},
		{"/v1/schedule", `{"model": "AlexNet", "options": {"patterns": ["XX"]}}`},
		{"/v1/compile", `{"model": "AlexNet", "search": "greedy"}`},
		{"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "nope"}`},
	} {
		for i := 0; i < 3; i++ {
			if ex := send(t, ts.URL+c.path, c.body, ""); ex.status != http.StatusBadRequest {
				t.Fatalf("%s %s (try %d): status %d, want 400", c.path, c.body, i, ex.status)
			}
		}
	}
	m := counters(t, ts.URL)
	if m["alias_entries"] != 0 || m["alias_hits"] != 0 {
		t.Errorf("failed bodies reached the alias: entries %v hits %v", m["alias_entries"], m["alias_hits"])
	}
}

// TestAliasDiesWithItsLRUEntry: once the entry a digest points at is
// evicted, the digest is gone too, and the repeat falls through to the
// full path — here the persistent store.
func TestAliasDiesWithItsLRUEntry(t *testing.T) {
	st := openStore(t, filepath.Join(t.TempDir(), "plans.log"))
	_, ts := newTestServer(t, Config{CacheEntries: 1, Store: st})
	a := `{"network": ` + tinyNetJSON + `}`
	b := `{"model": "AlexNet"}`
	first := send(t, ts.URL+"/v1/schedule", a, "")
	if first.source != "miss" {
		t.Fatalf("first request source %q", first.source)
	}
	if ex := send(t, ts.URL+"/v1/schedule", a, ""); ex.source != "hit" {
		t.Fatalf("repeat source %q, want hit", ex.source)
	}
	send(t, ts.URL+"/v1/schedule", b, "") // evicts a's entry
	if m := counters(t, ts.URL); m["alias_entries"] != 1 {
		t.Errorf("alias_entries = %v after eviction, want 1 (b's only)", m["alias_entries"])
	}
	again := send(t, ts.URL+"/v1/schedule", a, "")
	if again.source != "store" || again.key != first.key || !bytes.Equal(again.body, first.body) {
		t.Errorf("after eviction: source %q key %s, want the store's copy of %s", again.source, again.key, first.key)
	}
}

// TestAliasIndexIsBoundedByTheLRU: however many distinct bodies arrive,
// the index holds at most maxAliases digests per cached entry.
func TestAliasIndexIsBoundedByTheLRU(t *testing.T) {
	const entries = 3
	_, ts := newTestServer(t, Config{CacheEntries: entries})
	bound := float64(maxAliases * entries)
	sent := 0
	for n := 0; n < 2*entries; n++ {
		net := strings.Replace(tinyNetJSON, `"tiny"`, fmt.Sprintf(`"tiny%d"`, n), 1)
		for pad := 0; pad < 2*maxAliases; pad++ {
			ex := send(t, ts.URL+"/v1/schedule", `{"network": `+net+`}`+strings.Repeat(" ", pad), "")
			if ex.status != http.StatusOK {
				t.Fatalf("status %d: %s", ex.status, ex.body)
			}
			sent++
			if m := counters(t, ts.URL); m["alias_entries"] > bound {
				t.Fatalf("alias_entries = %v after %d distinct bodies, bound %v", m["alias_entries"], sent, bound)
			}
		}
	}
	if m := counters(t, ts.URL); m["alias_entries"] != bound {
		t.Errorf("alias_entries = %v, want the full bound %v", m["alias_entries"], bound)
	}
}

func TestLRUAliasIndex(t *testing.T) {
	c := newLRU(2)
	d := func(i int) aliasKey { return aliasKey{endpoint: "schedule", sum: sha256.Sum256([]byte{byte(i)})} }

	c.Alias(d(0), "a", fullRung)
	if c.AliasLen() != 0 {
		t.Fatal("a digest of an uncached key was indexed")
	}
	c.Add("a", []byte("A"))
	for i := 0; i < maxAliases+2; i++ {
		c.Alias(d(i), "a", degradedRung)
	}
	if c.AliasLen() != maxAliases {
		t.Fatalf("AliasLen = %d, want the per-entry cap %d", c.AliasLen(), maxAliases)
	}
	if _, _, _, ok := c.GetAlias(d(0)); ok {
		t.Error("the oldest digest survived the cap")
	}
	key, body, r, ok := c.GetAlias(d(maxAliases + 1))
	if !ok || key != "a" || string(body) != "A" || r != degradedRung {
		t.Errorf("GetAlias = %q %q %v %v", key, body, r, ok)
	}
	// The same digest on another endpoint is another body.
	if _, _, _, ok := c.GetAlias(aliasKey{endpoint: "compile", sum: d(maxAliases + 1).sum}); ok {
		t.Error("digest matched across endpoints")
	}

	c.Add("b", []byte("B"))
	c.Alias(d(100), "b", fullRung)
	c.Add("c", []byte("C")) // evicts a
	if c.AliasLen() != 1 {
		t.Errorf("AliasLen = %d after evicting a, want b's 1", c.AliasLen())
	}
	c.Remove("b")
	if c.AliasLen() != 0 {
		t.Errorf("AliasLen = %d after Remove, want 0", c.AliasLen())
	}
}

// TestResolutionIsPure pins the alias's soundness argument: resolving a
// body — every check, default and ladder rung between the bytes and the
// key — is a pure function of (endpoint, body, server Config). Servers
// with caching off resolve every request in full; two of them, and two
// requests on one, must agree on the status, key, bytes and counters.
func TestResolutionIsPure(t *testing.T) {
	cfg := Config{CacheEntries: -1, DegradeBudget: time.Minute, RequestTimeout: 2 * time.Minute}
	bodies := []struct{ path, body string }{
		{"/v1/schedule", `{"model": "AlexNet"}`},
		{"/v1/schedule", `{"model": "AlexNet", "accelerator": "test"}`},
		{"/v1/schedule", `{"network": ` + tinyNetJSON + `, "deadline_ms": 5000}`},
		{"/v1/schedule", `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`},
		{"/v1/compile", `{"network": ` + tinyNetJSON + `}`},
		{"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "approx-dram"}`},
		{"/v1/schedule", `{"model": "LeNet"}`},
	}
	_, a := newTestServer(t, cfg)
	_, b := newTestServer(t, cfg)
	for _, rq := range bodies {
		a0 := counters(t, a.URL)
		first := send(t, a.URL+rq.path, rq.body, "")
		a1 := counters(t, a.URL)
		second := send(t, a.URL+rq.path, rq.body, "")
		a2 := counters(t, a.URL)
		b0 := counters(t, b.URL)
		other := send(t, b.URL+rq.path, rq.body, "")
		b1 := counters(t, b.URL)
		for _, ex := range []exchange{second, other} {
			if ex.status != first.status || ex.key != first.key || !bytes.Equal(ex.body, first.body) {
				t.Errorf("%s %s: resolved to (%d, %s) and (%d, %s)", rq.path, rq.body, first.status, first.key, ex.status, ex.key)
			}
		}
		// The shared memos' counters are the computation's, not the
		// resolution's: a warm memo makes the same plan cheaper.
		resolution := func(d map[string]float64) map[string]float64 {
			for k := range d {
				if strings.HasPrefix(k, "memo_") {
					delete(d, k)
				}
			}
			return d
		}
		for _, d := range []map[string]float64{resolution(delta(a1, a2)), resolution(delta(b0, b1))} {
			if want := resolution(delta(a0, a1)); !reflect.DeepEqual(d, want) {
				t.Errorf("%s %s: counters moved %v, then %v", rq.path, rq.body, want, d)
			}
		}
	}
}

// TestCanonicalKeysPinned: canonical keys feed X-Rana-Key and persisted
// stores, so their bytes must not drift. The values are the keys these
// requests have always had.
func TestCanonicalKeysPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body, key string }{
		{"/v1/schedule", `{"model": "AlexNet"}`, "d8379caaada90066e855c9af5e4316def31eaccd7dd9a8347a41930c23e27464"},
		{"/v1/schedule", `{"model": "VGG", "options": {"controller": "conventional", "refresh_interval_ns": 45000}}`, "215f91baa37247be11a00e4a59e6b119880c66b3f7bb371ce4e84ae45f10f489"},
		{"/v1/schedule", `{"model": "AlexNet", "accelerator": "test"}`, "f603173a70b8e536899608d53ec837253b9bae8607d1003a89f37dd4ecf14525"},
		{"/v1/schedule", `{"model": "AlexNet", "options": {"backend": "approx-dram"}}`, "30b78dbfb634f7022ce744c2923790465bb88fd2837d9fc4d3f223b7cce4e725"},
		{"/v1/schedule", `{"network": ` + tinyNetJSON + `, "deadline_ms": 50}`, "c2d2f55b9ce8a8d11e1c94a9139009f6b80cca3a8b8ce62ee622dccfc560db1b"},
		{"/v1/schedule", `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`, "b55b24ef0323227afe4985ab7f21713182df48ebdfcf9d68e088c180051d7ab4"},
		{"/v1/compile", `{"model": "AlexNet"}`, "5c6ea5b39e7bb33d337566336199d618ff9fc070285f917f044e9129f65d2023"},
		{"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet"}`, "075813782bdf52afc0eda1c601711fa669a8733c437973e708cf087e824ed864"},
		{"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "approx-dram"}`, "a3a2e4ffd8a4b77c8b83f85234a3c6bec696883a53905b72bf55412ea34eed09"},
	} {
		// Twice: the full path and then the alias must both carry the key.
		for i := 0; i < 2; i++ {
			ex := send(t, ts.URL+c.path, c.body, "")
			if ex.status != http.StatusOK || ex.key != c.key {
				t.Errorf("%s %s (try %d): status %d key %s, want %s", c.path, c.body, i, ex.status, ex.key, c.key)
			}
		}
	}
}

// TestZooTableStaysPristine: resolved zoo networks share the interned
// table's Layers, so concurrent misses and hits on every endpoint must
// leave it equal to a freshly built zoo (and, under -race, show no
// write racing a read).
func TestZooTableStaysPristine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var bodies []struct{ path, body string }
	for _, net := range models.Benchmarks() {
		n := fmt.Sprintf(`"model": %q`, net.Name)
		bodies = append(bodies,
			struct{ path, body string }{"/v1/schedule", "{" + n + "}"},
			struct{ path, body string }{"/v1/schedule", "{" + n + `, "options": {"backend": "approx-dram"}}`},
			struct{ path, body string }{"/v1/evaluate", `{"design": "RANA*(E-5)", ` + n + "}"})
	}
	bodies = append(bodies, struct{ path, body string }{"/v1/compile", `{"model": "AlexNet"}`})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range bodies {
				rq := bodies[(i+g)%len(bodies)]
				for r := 0; r < 2; r++ {
					if ex := send(t, ts.URL+rq.path, rq.body, ""); ex.status != http.StatusOK {
						t.Errorf("%s %s: status %d: %s", rq.path, rq.body, ex.status, ex.body)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(zoo, models.Benchmarks()) {
		t.Fatal("serving zoo requests modified the interned zoo table")
	}
}

// replayBody is a request body that can be rewound without allocating.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that keeps nothing.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// maxAliasHitAllocs is the allocation budget of an alias hit through
// Handler(), measured at 8: the body buffer and its limit reader, the
// response, the three header values, and the status counter's key and
// its formatting argument.
const maxAliasHitAllocs = 8

// TestAliasHitAllocs gates what an alias hit allocates end to end
// through the route table, with the request and writer reused.
func TestAliasHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(Config{})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	payload := []byte(`{"network": ` + spelledNetwork(models.AlexNet()) + `}`)
	body := replayBody{bytes.NewReader(payload)}
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	r.ContentLength = int64(len(payload))
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		body.Reset(payload)
		r.Body = body
		h.ServeHTTP(w, r)
	}
	serve()
	serve()
	if w.status != http.StatusOK || w.h.Get("X-Rana-Cache") != "hit" {
		t.Fatalf("warm-up: status %d source %q", w.status, w.h.Get("X-Rana-Cache"))
	}
	hits := s.m.AliasHits.Value()
	allocs := testing.AllocsPerRun(100, serve)
	if s.m.AliasHits.Value()-hits < 100 {
		t.Fatal("the measured requests were not alias hits")
	}
	if allocs > maxAliasHitAllocs {
		t.Errorf("alias hit allocates %.0f times, budget %d", allocs, maxAliasHitAllocs)
	}
}

// BenchmarkHandlerHitMix is a fleet re-requesting the zoo, in process:
// named and spelled bodies on all three endpoints, every one a hit.
func BenchmarkHandlerHitMix(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	bodies := hitMixBodies()
	reqs := make([]*http.Request, len(bodies))
	payloads := make([]replayBody, len(bodies))
	for i, rq := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, rq.path, nil)
		reqs[i].ContentLength = int64(len(rq.body))
		payloads[i] = replayBody{bytes.NewReader([]byte(rq.body))}
	}
	w := &discardWriter{h: http.Header{}}
	serve := func(i int) {
		payloads[i].Seek(0, io.SeekStart)
		reqs[i].Body = payloads[i]
		h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			b.Fatalf("%s %s: status %d", bodies[i].path, bodies[i].body, w.status)
		}
	}
	for i := range bodies {
		serve(i) // compute and register every body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		serve(n % len(bodies))
	}
}

// FuzzRepeatBody: any body sent twice is answered the same way twice —
// the same status and, on a 200, the same bytes and X-Rana-Key. The
// second request is where the alias answers whatever the first
// registered. Computation is stubbed so the fuzzer spends its time on
// decode, resolution and the alias: a schedule is an empty plan of the
// resolved network, and every compile is AlexNet's (memoized after the
// first).
func FuzzRepeatBody(f *testing.F) {
	for _, rq := range hitMixBodies()[:6] {
		f.Add(rq.path[len("/v1/"):], []byte(rq.body))
	}
	f.Add("schedule", []byte(`{"network": `+tinyNetJSON+`, "deadline_ms": 50}`))
	f.Add("schedule", []byte(`{"network": `+tinyNetJSON+`, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`))
	f.Add("schedule", []byte(`{"model": "AlexNet"}  `))
	f.Add("schedule", []byte(`{"model": "AlexNet"}{}`))
	f.Add("evaluate", []byte(`{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "approx-dram"}`))
	f.Add("compile", []byte(`{"model": "LeNet"}`))
	f.Add("schedule", []byte(``))

	s := New(Config{})
	defer s.Shutdown(context.Background())
	s.scheduleFn = func(_ context.Context, net models.Network, _ hw.Config, _ sched.Options) (*sched.Plan, error) {
		return &sched.Plan{Network: net}, nil
	}
	compile := s.compileFn
	s.compileFn = func(ctx context.Context, net models.Network, _ search.Strategy, _ int) (*core.Output, error) {
		return compile(ctx, models.AlexNet(), "", 1)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, endpoint string, body []byte) {
		switch endpoint {
		case "schedule", "compile":
		case "evaluate":
			// Evaluate has no computation seam: keep it to the zoo, whose
			// evaluations are bounded, and fuzz the design and backend axes.
			var req EvaluateRequest
			if json.Unmarshal(body, &req) == nil && req.Network != nil {
				return
			}
		default:
			return
		}
		var got [2]*httptest.ResponseRecorder
		for i := range got {
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(body)))
		}
		a, b := got[0], got[1]
		if a.Code != b.Code {
			t.Fatalf("status %d then %d", a.Code, b.Code)
		}
		if a.Code == http.StatusOK && (!bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) ||
			a.Header().Get("X-Rana-Key") != b.Header().Get("X-Rana-Key")) {
			t.Fatalf("a repeated 200 changed: key %s then %s", a.Header().Get("X-Rana-Key"), b.Header().Get("X-Rana-Key"))
		}
	})
}
