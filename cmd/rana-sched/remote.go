package main

// The -server mode: compile on a ranad instance instead of in process.
// Requests go through serve.RetryClient, so shed (429) and breaker/drain
// (503) responses are retried with Retry-After-aware jittered backoff
// within a fixed time budget.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rana/internal/serve"
)

// runRemote posts the compilation to baseURL and prints the result in
// the mode's format: -export prints the portable artifact verbatim,
// -json prints the plan wire encoding, and the default prints the
// compile summary numbers (the per-layer table needs the in-process
// output and is only available locally).
func runRemote(baseURL, model, strategy, backend, point, traversal, mapping string, parallelism int, export, asJSON bool, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rc := &serve.RetryClient{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "rana-sched: "+format+"\n", args...)
		},
	}
	req := map[string]any{"model": model}
	if asJSON {
		// /v1/schedule carries the same plan wire encoding as local -json.
		// A -search strategy pins the server's exploration; -parallelism
		// rides along as a throughput hint that never changes the plan
		// bytes.
		options := map[string]any{}
		if strategy != "" {
			options["search"] = strategy
		}
		if parallelism > 0 {
			options["parallelism"] = parallelism
		}
		if backend != "" {
			options["backend"] = backend
		}
		if point != "" {
			options["operating_point"] = point
		}
		if traversal != "" {
			options["traversal"] = traversal
		}
		if mapping != "" {
			options["mapping"] = mapping
		}
		if len(options) > 0 {
			req["options"] = options
		}
		reqBody, err := json.Marshal(req)
		if err != nil {
			fmt.Fprintln(stderr, "rana-sched:", err)
			return 1
		}
		body, status, err := rc.PostJSON(ctx, baseURL+"/v1/schedule", reqBody)
		if err != nil {
			fmt.Fprintln(stderr, "rana-sched:", err)
			return 1
		}
		if status != 200 {
			return remoteError(stderr, status, body)
		}
		var resp struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			fmt.Fprintln(stderr, "rana-sched:", err)
			return 1
		}
		return printIndented(stdout, stderr, resp.Plan)
	}

	if strategy != "" {
		req["search"] = strategy
	}
	if parallelism > 0 {
		req["parallelism"] = parallelism
	}
	reqBody, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	body, status, err := rc.PostJSON(ctx, baseURL+"/v1/compile", reqBody)
	if err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	if status != 200 {
		return remoteError(stderr, status, body)
	}
	var resp struct {
		TolerableRate        float64         `json:"tolerable_rate"`
		TolerableRetentionNS int64           `json:"tolerable_retention_ns"`
		DividerRatio         uint64          `json:"divider_ratio"`
		EnergyPJ             float64         `json:"energy_pj"`
		Artifact             json.RawMessage `json:"artifact"`
		Plan                 struct {
			Layers []any `json:"layers"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	if export {
		return printIndented(stdout, stderr, resp.Artifact)
	}
	fmt.Fprintf(stdout, "%s via %s: %d layers scheduled\n", model, baseURL, len(resp.Plan.Layers))
	fmt.Fprintf(stdout, "tolerable refresh rate: %.4f, retention: %v, divider ratio: %d\n",
		resp.TolerableRate, time.Duration(resp.TolerableRetentionNS), resp.DividerRatio)
	fmt.Fprintf(stdout, "energy: total %.3f mJ\n", resp.EnergyPJ/1e9)
	return 0
}

// remoteError reports a non-200 final status, surfacing the server's
// structured error message when the body carries one.
func remoteError(stderr io.Writer, status int, body []byte) int {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		fmt.Fprintf(stderr, "rana-sched: server returned %d: %s\n", status, e.Error)
	} else {
		fmt.Fprintf(stderr, "rana-sched: server returned %d\n", status)
	}
	return 1
}

func printIndented(stdout, stderr io.Writer, raw json.RawMessage) int {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	return 0
}
