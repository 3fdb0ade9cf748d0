package trace

import (
	"testing"
)

// evt builds a raw event the way a per-process trace file would hold
// it, so BuildSpans tests control timestamps exactly.
func evt(rank int, kind string, elapsed, unix int64, detail map[string]any) Event {
	return Event{Rank: rank, Kind: kind, ElapsedUS: elapsed, UnixUS: unix, Detail: detail}
}

func TestStartSpanNilAndNopAreFree(t *testing.T) {
	if sp := StartSpan(nil, 0, Scope{}, "sort", nil); sp != nil {
		t.Fatal("nil tracer produced a live span")
	}
	if sp := StartSpan(Nop{}, 0, Scope{}, "sort", nil); sp != nil {
		t.Fatal("Nop tracer produced a live span")
	}
	// Every method must be inert on the nil span.
	var sp *Span
	sp.End(map[string]any{"ignored": true})
	if sp.ID() != 0 {
		t.Errorf("nil span ID = %d, want 0", sp.ID())
	}
	if sc := sp.Scope(); sc != (Scope{}) {
		t.Errorf("nil span Scope = %+v, want zero (children become roots)", sc)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	rec := NewRing(16)
	root := StartSpan(rec, 2, Scope{Trace: "job7", Job: "j"}, "sort", map[string]any{"records": 100})
	child := StartSpan(rec, 2, root.Scope(), "exchange", nil)
	child.End(map[string]any{"bytes": 800})
	root.End(map[string]any{"records": 100})

	spans := BuildSpans(rec.Events())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	got := map[string]SpanRecord{}
	for _, s := range spans {
		got[s.Name] = s
	}
	r, c := got["sort"], got["exchange"]
	if r.Open || c.Open {
		t.Fatalf("closed spans reported open: %+v / %+v", r, c)
	}
	if r.Trace != "job7" || r.Job != "j" || r.Parent != 0 {
		t.Errorf("root scope mangled: %+v", r)
	}
	if c.Parent != r.Span {
		t.Errorf("child parent = %d, want root id %d", c.Parent, r.Span)
	}
	if c.Trace != "job7" || c.Job != "j" {
		t.Errorf("scope did not propagate to the child: %+v", c)
	}
	// Detail merges begin and end annotations, minus bookkeeping keys.
	if r.Detail["records"] != 100 || c.Detail["bytes"] != 800 {
		t.Errorf("annotations lost: root %v, child %v", r.Detail, c.Detail)
	}
	for _, k := range []string{"span", "parent", "trace", "name", "job"} {
		if _, ok := r.Detail[k]; ok {
			t.Errorf("bookkeeping key %q leaked into Detail", k)
		}
	}
	if r.DurUS() < 0 || c.DurUS() < 0 {
		t.Errorf("negative durations: %d / %d", r.DurUS(), c.DurUS())
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	rec := NewRing(16)
	sp := StartSpan(rec, 0, Scope{}, "sort", nil)
	// The eager close with rich detail wins; the deferred error-path
	// net afterwards must be a no-op.
	sp.End(map[string]any{"records": 42})
	sp.End(map[string]any{"reason": "error"})
	ends := 0
	for _, e := range rec.Events() {
		if e.Kind == KindSpanEnd {
			ends++
		}
	}
	if ends != 1 {
		t.Fatalf("End emitted %d times, want 1", ends)
	}
	spans := BuildSpans(rec.Events())
	if len(spans) != 1 || spans[0].Detail["records"] != 42 {
		t.Fatalf("first End's detail lost: %+v", spans)
	}
	if _, ok := spans[0].Detail["reason"]; ok {
		t.Error("second End's detail leaked through")
	}
}

// Span IDs are process-unique only: two per-process trace files can
// both hold span id 1. Pairing on (rank, id) keeps the timelines
// separate after a merge.
func TestBuildSpansCrossProcessIDCollision(t *testing.T) {
	events := []Event{
		evt(0, KindSpanBegin, 10, 0, map[string]any{"span": int64(1), "name": "sort"}),
		evt(1, KindSpanBegin, 12, 0, map[string]any{"span": int64(1), "name": "sort"}),
		evt(0, KindSpanEnd, 50, 0, map[string]any{"span": int64(1), "name": "sort"}),
		evt(1, KindSpanEnd, 80, 0, map[string]any{"span": int64(1), "name": "sort"}),
	}
	spans := BuildSpans(events)
	if len(spans) != 2 {
		t.Fatalf("colliding IDs merged: got %d spans, want 2", len(spans))
	}
	byRank := map[int]SpanRecord{}
	for _, s := range spans {
		byRank[s.Rank] = s
	}
	if d := byRank[0].DurUS(); d != 40 {
		t.Errorf("rank 0 duration %d, want 40", d)
	}
	if d := byRank[1].DurUS(); d != 68 {
		t.Errorf("rank 1 duration %d, want 68", d)
	}
}

// A begin with no end — a crashed or still-running phase — surfaces as
// an Open span stretched to the rank's last sighting, not as nothing.
func TestBuildSpansOpenSpanExtendsToLastSighting(t *testing.T) {
	events := []Event{
		evt(3, KindSpanBegin, 5, 1005, map[string]any{"span": int64(9), "name": "exchange"}),
		evt(3, "skew.phase", 40, 1040, nil),
		evt(3, "heartbeat", 90, 1090, nil),
	}
	spans := BuildSpans(events)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Open {
		t.Fatal("unterminated span not marked Open")
	}
	if s.EndUS != 90 || s.EndUnixUS != 1090 {
		t.Errorf("open span end = %d/%d, want the last sighting 90/1090", s.EndUS, s.EndUnixUS)
	}
}

// An end without a begin (the ring overwrote the begin event) is
// dropped rather than fabricating a span.
func TestBuildSpansEndWithoutBegin(t *testing.T) {
	events := []Event{
		evt(0, KindSpanEnd, 50, 0, map[string]any{"span": int64(77), "name": "sort"}),
		evt(0, "noise", 60, 0, nil),
	}
	if spans := BuildSpans(events); len(spans) != 0 {
		t.Fatalf("truncated stream fabricated spans: %+v", spans)
	}
}

func TestBuildSpansOrderedByStart(t *testing.T) {
	events := []Event{
		evt(1, KindSpanBegin, 30, 0, map[string]any{"span": int64(2), "name": "b"}),
		evt(0, KindSpanBegin, 10, 0, map[string]any{"span": int64(1), "name": "a"}),
		evt(0, KindSpanEnd, 20, 0, map[string]any{"span": int64(1), "name": "a"}),
		evt(1, KindSpanEnd, 40, 0, map[string]any{"span": int64(2), "name": "b"}),
	}
	spans := BuildSpans(events)
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("spans not in start order: %+v", spans)
	}
}
