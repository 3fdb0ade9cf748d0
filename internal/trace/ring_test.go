package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRingRetainsLastN(t *testing.T) {
	r := NewRing(3)
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("fresh ring holds %d events", len(got))
	}
	for i := 0; i < 5; i++ {
		r.Emit(i, fmt.Sprintf("k%d", i), nil)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring of 3 holds %d events", len(evs))
	}
	for i, e := range evs {
		if want := fmt.Sprintf("k%d", i+2); e.Kind != want {
			t.Errorf("event %d = %q, want %q (oldest first)", i, e.Kind, want)
		}
	}
	if evs[0].Seq >= evs[1].Seq || evs[1].Seq >= evs[2].Seq {
		t.Errorf("sequence not increasing: %d %d %d", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
}

func TestRingMarshalJSONL(t *testing.T) {
	r := NewRing(4)
	r.Emit(0, "skew.phase", map[string]any{"records": 10})
	r.Emit(0, "algo.selected", map[string]any{"algo": "sds"})
	lines := r.MarshalJSONL()
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	// The output is what a JSONL sink would write: readable by ReadJSONL.
	events, err := ReadJSONL(strings.NewReader(string(lines[0]) + "\n" + string(lines[1]) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != "skew.phase" || events[1].Kind != "algo.selected" {
		t.Fatalf("round trip mangled events: %+v", events)
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(rank, "spin", nil)
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Events()); got != 8 {
		t.Errorf("ring holds %d events after concurrent emits, want 8", got)
	}
	if got := r.Dropped(); got != 400-8 {
		t.Errorf("Dropped = %d, want %d", got, 400-8)
	}
}

// Emitters reuse their detail maps (the hot path annotates one map
// per phase); the ring must copy on Emit so a later mutation cannot
// rewrite history in the buffer.
func TestRingCopiesDetailOnEmit(t *testing.T) {
	r := NewRing(4)
	d := map[string]any{"records": 10}
	r.Emit(0, "phase", d)
	d["records"] = 999
	evs := r.Events()
	if len(evs) != 1 || evs[0].Detail["records"] != 10 {
		t.Fatalf("ring aliased the caller's detail map: %+v", evs)
	}
}

func TestTeeFansOutAndDropsNil(t *testing.T) {
	a, b := NewRing(2), NewRing(2)
	tee, ok := NewTee(a, nil, b).(Tee)
	if !ok || len(tee) != 2 {
		t.Fatalf("tee = %#v, want a Tee of 2 sinks (nil dropped)", tee)
	}
	tee.Emit(1, "ev", nil)
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("fan-out missed a sink: %d/%d", len(a.Events()), len(b.Events()))
	}
	// One surviving sink is returned as itself, not wrapped.
	if got := NewTee(nil, a); got != Tracer(a) {
		t.Errorf("NewTee(nil, a) = %#v, want a itself", got)
	}
}

// TestEmptyTeeSpansNothing: a process with no trace sink must not build
// spans for nobody — an empty tee is Nop, so StartSpan returns nil.
func TestEmptyTeeSpansNothing(t *testing.T) {
	if sp := StartSpan(NewTee(), 0, Scope{}, "sort", map[string]any{"records": 1}); sp != nil {
		t.Fatalf("StartSpan on an empty tee = %+v, want nil", sp)
	}
	if sp := StartSpan(NewTee(nil, nil), 0, Scope{}, "sort", nil); sp != nil {
		t.Fatalf("StartSpan on an all-nil tee = %+v, want nil", sp)
	}
}
