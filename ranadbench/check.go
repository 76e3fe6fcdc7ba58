package main

// The correctness oracle applied to every response: status, cache
// source, stable bytes per key, and the committed golden plans.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rana/internal/models"
)

// goldenDir holds the committed default-option zoo plans, relative to
// the repository root.
const goldenDir = "internal/sched/testdata/golden"

type checker struct {
	tr      *traffic
	goldens map[string][]byte
	// ref is each key's first body; refHash its hash; srvKey the
	// X-Rana-Key ranad gave it.
	ref     map[int][]byte
	refHash map[int]uint64
	srvKey  map[int]string
	// failed counts requests that failed a check; notes keeps the first
	// few reasons for the report.
	failed int
	notes  []string
}

func newChecker(root string, tr *traffic) (*checker, error) {
	c := &checker{tr: tr, goldens: map[string][]byte{},
		ref: map[int][]byte{}, refHash: map[int]uint64{}, srvKey: map[int]string{}}
	for _, net := range models.Benchmarks() {
		raw, err := os.ReadFile(filepath.Join(root, goldenDir, net.Name+".json"))
		if err != nil {
			return nil, fmt.Errorf("reading golden plan: %w", err)
		}
		c.goldens[net.Name] = raw
	}
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// checkAll checks records of one round. Responses that carry their
// bytes go first, so each key's reference body exists before the hits
// that are compared against it by hash.
func (c *checker) checkAll(recs []record, allHits bool) {
	for pass := 0; pass < 2; pass++ {
		for i := range recs {
			if r := &recs[i]; (r.data != nil) == (pass == 0) {
				c.check(r, allHits)
			}
		}
	}
}

// check applies every per-response check and counts a request that
// fails any of them once.
func (c *checker) check(r *record, wantHit bool) {
	b := c.tr.bodies[r.body]
	switch {
	case r.err != nil:
		c.fail("%s: %v", b.path, r.err)
		return
	case r.status != 200:
		c.fail("%s: status %d: %.200s", b.path, r.status, r.data)
		return
	case r.source == srcNone || r.source == srcOther:
		c.fail("%s: unexpected cache source", b.path)
		return
	case wantHit && r.source != srcHit:
		c.fail("%s: timed response was not a cache hit", b.path)
		return
	}
	if k, ok := c.srvKey[b.key]; !ok {
		c.srvKey[b.key] = r.key
	} else if k != r.key {
		c.fail("%s: one request, two server keys %s and %s", b.path, k, r.key)
		return
	}
	ref, ok := c.ref[b.key]
	if !ok {
		if r.data == nil {
			c.fail("%s: hit before any computed response for its key", b.path)
			return
		}
		if b.golden != "" {
			if err := c.checkGolden(b.golden, r.data); err != nil {
				c.fail("%s: %v", b.path, err)
				return
			}
		}
		c.ref[b.key] = r.data
		c.refHash[b.key] = r.hash
		return
	}
	if r.data != nil && !bytes.Equal(r.data, ref) || r.hash != c.refHash[b.key] || r.size != len(ref) {
		c.fail("%s: body differs from the key's first body", b.path)
	}
}

// checkGolden compares a schedule response's plan with the committed
// golden file, which holds the same encoding indented.
func (c *checker) checkGolden(net string, resp []byte) error {
	var doc struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(resp, &doc); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, doc.Plan, "", "  "); err != nil {
		return fmt.Errorf("indenting plan: %w", err)
	}
	got.WriteByte('\n')
	if !bytes.Equal(got.Bytes(), c.goldens[net]) {
		return fmt.Errorf("%s plan differs from %s/%s.json", net, goldenDir, net)
	}
	return nil
}

// planPJPerMAC is the energy of every distinct plan returned over their
// multiply-accumulates: a worse plan for the same networks raises it.
func (c *checker) planPJPerMAC() (float64, error) {
	keys := make([]int, 0, len(c.ref))
	for k := range c.ref {
		keys = append(keys, k)
	}
	sort.Ints(keys) // a fixed summation order keeps the value reproducible
	var pj, macs float64
	for _, k := range keys {
		var doc struct {
			Plan struct {
				EnergyPJ float64 `json:"energy_pj"`
				MACs     uint64  `json:"macs"`
			} `json:"plan"`
		}
		if err := json.Unmarshal(c.ref[k], &doc); err != nil {
			return 0, fmt.Errorf("decoding a plan: %w", err)
		}
		pj += doc.Plan.EnergyPJ
		macs += float64(doc.Plan.MACs)
	}
	if macs == 0 {
		return 0, fmt.Errorf("no plans returned")
	}
	return pj / macs, nil
}
