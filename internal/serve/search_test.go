package serve

// Tests for the search-strategy surface of the API: the "search"
// request field, its interplay with the degradation ladder, and the
// strategy's place in the cache key.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"rana/internal/core"
	"rana/internal/models"
	"rana/internal/sched/search"
)

// scheduleTiny posts a /v1/schedule request for the tiny network with
// the given extra top-level fields and decodes the response.
func scheduleTiny(t *testing.T, url, extra string) (*http.Response, ScheduleResponse) {
	t.Helper()
	body := `{"network": ` + tinyNetJSON + extra + `}`
	resp := post(t, url+"/v1/schedule", body)
	raw := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("body not a ScheduleResponse: %v\n%s", err, raw)
	}
	return resp, sr
}

func TestScheduleEchoesResolvedSearch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// No pinned strategy, no deadline: the pruned default.
	_, sr := scheduleTiny(t, ts.URL, ``)
	if sr.Search != string(search.Pruned) {
		t.Errorf("default search = %q, want %q", sr.Search, search.Pruned)
	}

	// A pinned strategy is echoed as written.
	_, sr = scheduleTiny(t, ts.URL, `, "options": {"search": "exhaustive"}`)
	if sr.Search != string(search.Exhaustive) {
		t.Errorf("pinned search = %q, want %q", sr.Search, search.Exhaustive)
	}
}

func TestDeadlineAboveDegradeBudgetRunsFullSearch(t *testing.T) {
	// The ladder has two rungs. A deadline that clears the degrade
	// budget runs the full default search under the very key of the same
	// request without a deadline.
	_, ts := newTestServer(t, Config{DegradeBudget: 50 * time.Millisecond})
	plain, _ := scheduleTiny(t, ts.URL, ``)
	resp, sr := scheduleTiny(t, ts.URL, `, "deadline_ms": 30000`)
	if sr.Degraded || sr.Search != string(search.Pruned) {
		t.Errorf("degraded=%v search=%q, want full pruned search", sr.Degraded, sr.Search)
	}
	if got, want := resp.Header.Get("X-Rana-Key"), plain.Header.Get("X-Rana-Key"); got != want {
		t.Errorf("deadline request key %s, want the no-deadline key %s", got, want)
	}

	// A pinned strategy is honored under a deadline too.
	_, sr = scheduleTiny(t, ts.URL, `, "deadline_ms": 30000, "options": {"search": "exhaustive"}`)
	if sr.Search != string(search.Exhaustive) {
		t.Errorf("pinned search under a deadline = %q, want %q", sr.Search, search.Exhaustive)
	}

	// The bottom rung still wins below the degrade budget, and the
	// degraded body carries no search field (nothing was searched).
	_, sr = scheduleTiny(t, ts.URL, `, "deadline_ms": 40`)
	if !sr.Degraded {
		t.Fatal("deadline below the degrade budget must degrade")
	}
	if sr.Search != "" {
		t.Errorf("degraded search = %q, want empty", sr.Search)
	}
}

func TestShortDeadlineRunsFullSearch(t *testing.T) {
	// Under the default config, a deadline a little above the default
	// degrade budget is no longer substituted with a budgeted search: it
	// runs the full default search, exactly as a request without one.
	_, ts := newTestServer(t, Config{})
	_, sr := scheduleTiny(t, ts.URL, `, "deadline_ms": 500`)
	if sr.Degraded || sr.Search != string(search.Pruned) {
		t.Errorf("degraded=%v search=%q, want full pruned search", sr.Degraded, sr.Search)
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// /v1/compile shares the validation through its top-level field. The
	// retired beam strategy is an unknown name like any other, and its
	// width field an unknown field.
	cases := []struct {
		name, path, body, wantErr string
	}{
		{"unknown strategy", "/v1/schedule", `{"model": "AlexNet", "options": {"search": "dfs"}}`, "invalid search"},
		{"retired beam strategy", "/v1/schedule", `{"model": "AlexNet", "options": {"search": "beam"}}`, "(want one of [exhaustive pruned])"},
		{"retired beam_width field", "/v1/schedule", `{"model": "AlexNet", "options": {"beam_width": 8}}`, `unknown field "beam_width"`},
		{"compile unknown strategy", "/v1/compile", `{"model": "AlexNet", "search": "dfs"}`, "invalid search"},
		{"compile retired beam strategy", "/v1/compile", `{"model": "AlexNet", "search": "beam"}`, "(want one of [exhaustive pruned])"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+tc.path, tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != 400 {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

func TestSearchStrategyIsACacheKeyComponent(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Omitted and explicitly-pinned "pruned" resolve to one key...
	resp, _ := scheduleTiny(t, ts.URL, ``)
	if got := resp.Header.Get("X-Rana-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	resp, _ = scheduleTiny(t, ts.URL, `, "options": {"search": "pruned"}`)
	if got := resp.Header.Get("X-Rana-Cache"); got != "hit" {
		t.Errorf(`explicit "pruned" cache = %q, want hit (same key as the default)`, got)
	}

	// ...while a different strategy computes fresh.
	resp, _ = scheduleTiny(t, ts.URL, `, "options": {"search": "exhaustive"}`)
	if got := resp.Header.Get("X-Rana-Cache"); got != "miss" {
		t.Errorf("exhaustive request cache = %q, want miss (distinct key)", got)
	}
}

func TestSearchStrategiesAgreeOverHTTP(t *testing.T) {
	// End-to-end differential check at the API layer: exhaustive and
	// pruned must return byte-identical plan encodings.
	_, ts := newTestServer(t, Config{})
	plans := make(map[search.Strategy]string)
	for _, s := range []search.Strategy{search.Exhaustive, search.Pruned} {
		_, sr := scheduleTiny(t, ts.URL, fmt.Sprintf(`, "options": {"search": %q}`, s))
		b, err := json.Marshal(sr.Plan)
		if err != nil {
			t.Fatal(err)
		}
		plans[s] = string(b)
	}
	if plans[search.Exhaustive] != plans[search.Pruned] {
		t.Errorf("pruned plan differs from exhaustive:\nexhaustive: %.200s\npruned:     %.200s",
			plans[search.Exhaustive], plans[search.Pruned])
	}
}

func TestCatalogListsSearchStrategies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Strategies []string `json:"search_strategies"`
	}
	if err := json.Unmarshal(readBody(t, resp), &cat); err != nil {
		t.Fatal(err)
	}
	want := search.Strategies()
	if len(cat.Strategies) != len(want) {
		t.Fatalf("catalog lists %v, want %v", cat.Strategies, want)
	}
	for i, s := range want {
		if cat.Strategies[i] != string(s) {
			t.Errorf("catalog strategy %d = %q, want %q", i, cat.Strategies[i], s)
		}
	}
}

func TestCompileHonorsSearchStrategy(t *testing.T) {
	// The compile path threads the strategy into the framework; record
	// what the default compileFn receives via a stub.
	s, ts := newTestServer(t, Config{})
	var got []search.Strategy
	inner := s.compileFn
	s.compileFn = func(ctx context.Context, net models.Network, strategy search.Strategy, parallelism int) (*core.Output, error) {
		got = append(got, strategy)
		return inner(ctx, net, strategy, parallelism)
	}
	post(t, ts.URL+"/v1/compile", `{"network": `+tinyNetJSON+`}`).Body.Close()
	post(t, ts.URL+"/v1/compile", `{"network": `+tinyNetJSON+`, "search": "exhaustive"}`).Body.Close()
	if len(got) != 2 || got[0] != "" || got[1] != search.Exhaustive {
		t.Errorf("compileFn saw strategies %v, want [\"\" exhaustive]", got)
	}
}
