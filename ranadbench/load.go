package main

// The closed-loop load generator: a fixed number of connections, each
// sending its next request only after the previous reply has been read.

import (
	"bytes"
	"context"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Cache sources, from ranad's X-Rana-Cache header.
const (
	srcNone  = iota // no header: an error response
	srcOther        // a source the benchmark does not expect
	srcHit
	srcMiss
	srcDedup
	srcStore
)

var sourceNames = [...]string{srcHit: "hit", srcMiss: "miss", srcDedup: "dedup", srcStore: "store"}

func parseSource(h string) uint8 {
	if h == "" {
		return srcNone
	}
	for s, name := range sourceNames {
		if name == h {
			return uint8(s)
		}
	}
	return srcOther
}

// record is one request's outcome. Its start and end are offsets from
// the round's epoch.
type record struct {
	body       int
	status     int
	source     uint8
	start, end time.Duration
	size       int
	hash       uint64
	key        string // X-Rana-Key
	// data holds the body bytes of responses that computed or read the
	// store, and of error responses; hits carry only the hash.
	data []byte
	err  error
}

func (r *record) latency() time.Duration { return r.end - r.start }

// hashSeed is fixed for the process, so hashes compare across rounds.
var hashSeed = maphash.MakeSeed()

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send posts one body and reads the whole reply into buf.
func send(ctx context.Context, c *http.Client, base string, b body, buf *bytes.Buffer, epoch time.Time) record {
	rec := record{start: time.Since(epoch)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+b.path, bytes.NewReader(b.data))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		rec.err = err
		rec.end = time.Since(epoch)
		return rec
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.end = time.Since(epoch)
	rec.err = err
	rec.status = resp.StatusCode
	rec.source = parseSource(resp.Header.Get("X-Rana-Cache"))
	rec.key = resp.Header.Get("X-Rana-Key")
	rec.size = buf.Len()
	rec.hash = maphash.Bytes(hashSeed, buf.Bytes())
	if rec.source != srcHit {
		rec.data = bytes.Clone(buf.Bytes())
	}
	return rec
}

// sendAll posts bodies one at a time.
func sendAll(ctx context.Context, c *http.Client, base string, tr *traffic, idx []int, epoch time.Time) []record {
	var buf bytes.Buffer
	recs := make([]record, len(idx))
	for i, bi := range idx {
		recs[i] = send(ctx, c, base, tr.bodies[bi], &buf, epoch)
		recs[i].body = bi
	}
	return recs
}

// drive sends order over conns connections in closed loop and returns
// one record per request, in order. When traced, each connection also
// appends a span per request as it completes.
func drive(ctx context.Context, c *http.Client, base string, tr *traffic, order []int, conns int, epoch time.Time, traced bool) ([]record, []span) {
	recs := make([]record, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var spans []span
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []span
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) || ctx.Err() != nil {
					break
				}
				r := &recs[i]
				*r = send(ctx, c, base, tr.bodies[order[i]], &buf, epoch)
				r.body = order[i]
				if traced {
					mine = append(mine, span{ID: i + 1, Name: "http" + tr.bodies[r.body].path, Body: r.body,
						Source: sourceNames[r.source], Start: us(r.start), End: us(r.end)})
				}
			}
			mu.Lock()
			spans = append(spans, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, spans
}
