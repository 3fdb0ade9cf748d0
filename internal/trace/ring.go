package trace

import (
	"encoding/json"
	"maps"
	"sync"
	"time"
)

// Ring keeps the last N events in a circular buffer so a live process
// can expose its recent trace (the telemetry server's /debug/trace)
// without unbounded memory. Older events are overwritten silently.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int64 // total events ever emitted; buf index is next % len
	start time.Time
}

// NewRing returns a ring holding the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n), start: time.Now()}
}

// Emit implements Tracer. The detail map is shallow-copied: the ring
// retains events long after Emit returns, and callers own (and may
// mutate or reuse) the map they passed in.
func (r *Ring) Emit(rank int, kind string, detail map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	now := time.Now()
	r.buf[(r.next-1)%int64(len(r.buf))] = Event{
		Seq:       r.next,
		ElapsedUS: now.Sub(r.start).Microseconds(),
		UnixUS:    now.UnixMicro(),
		Rank:      rank,
		Kind:      kind,
		Detail:    maps.Clone(detail),
	}
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.buf))
	out := make([]Event, 0, n)
	lo := r.next - n
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < r.next; i++ {
		out = append(out, r.buf[i%n])
	}
	return out
}

// Dropped reports how many events fell off the ring.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.next - int64(len(r.buf)); d > 0 {
		return d
	}
	return 0
}

// MarshalJSONL renders the retained events as JSON lines, oldest
// first — the same shape a JSONL sink writes, so the output feeds
// straight into sdstrace.
func (r *Ring) MarshalJSONL() []json.RawMessage {
	evs := r.Events()
	out := make([]json.RawMessage, 0, len(evs))
	for _, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			continue // map[string]any with unmarshalable values; skip
		}
		out = append(out, b)
	}
	return out
}

// Tee fans every event out to all of its sinks, letting a run feed a
// durable JSONL file and a live ring at once.
type Tee []Tracer

// NewTee fans out to sinks, dropping nil ones. With none left it returns
// Nop, so StartSpan costs nothing; with one, that sink itself.
func NewTee(sinks ...Tracer) Tracer {
	var t Tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	switch len(t) {
	case 0:
		return Nop{}
	case 1:
		return t[0]
	}
	return t
}

// Emit implements Tracer.
func (t Tee) Emit(rank int, kind string, detail map[string]any) {
	for _, s := range t {
		s.Emit(rank, kind, detail)
	}
}
