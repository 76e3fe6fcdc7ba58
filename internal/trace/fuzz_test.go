package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTrace: any input either fails to parse with an error (never a
// panic) or yields a trace that survives a Write→ReadTrace round trip
// with identical events, counts and span. Event ordering is enforced at
// parse time: out-of-order cycles are a parse error, so every parsed
// trace satisfies the Append ordering invariant.
func FuzzReadTrace(f *testing.F) {
	f.Add("# rana-trace frequency_hz=5e8\n0,read,inputs,0,16\n3,write,outputs,1,4\n")
	f.Add("# rana-trace frequency_hz=1e6\n")
	f.Add("")
	f.Add("5,read,weights,0,1\n")                                                  // missing header
	f.Add("# rana-trace frequency_hz=5e8\n9,read,inputs,0,1\n3,read,inputs,0,1\n") // disorder
	f.Add("# rana-trace frequency_hz=5e8\n0,flush,inputs,0,1\n")                   // bad op
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		for i := 1; i < len(tr.Events); i++ {
			if tr.Events[i].Cycle < tr.Events[i-1].Cycle {
				t.Fatalf("parsed trace out of order at event %d", i)
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		rt, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v\n%s", err, buf.String())
		}
		if len(rt.Events) != len(tr.Events) {
			t.Fatalf("round trip: %d events, want %d", len(rt.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if rt.Events[i] != tr.Events[i] {
				t.Fatalf("event %d changed: %+v -> %+v", i, tr.Events[i], rt.Events[i])
			}
		}
		if rt.Count() != tr.Count() || rt.Span() != tr.Span() {
			t.Fatal("aggregates changed across round trip")
		}
	})
}
