package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestJSONLEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(0, "skew.phase", map[string]any{"records": 10})
	j.Emit(1, "algo.selected", nil)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSON line: %v", err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Kind != "skew.phase" || events[0].Rank != 0 || events[0].Seq != 1 {
		t.Fatalf("event 0: %+v", events[0])
	}
	if events[0].Detail["records"] != float64(10) {
		t.Fatalf("detail lost: %+v", events[0].Detail)
	}
	if events[1].Seq != 2 {
		t.Fatalf("sequence: %+v", events[1])
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestJSONLStopsAfterError(t *testing.T) {
	j := NewJSONL(failingWriter{})
	j.Emit(0, "a", nil)
	if j.Err() == nil {
		t.Fatal("error swallowed")
	}
	j.Emit(0, "b", nil) // must not panic or reset the error
	if j.Err() == nil {
		t.Fatal("error cleared")
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := NewRing(800)
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(rank, "e", nil)
				j.Emit(rank, "e", nil)
			}
		}(rank)
	}
	wg.Wait()
	if got := len(r.Events()); got != 800 || r.Dropped() != 0 {
		t.Fatalf("ring lost events: %d kept, %d dropped", got, r.Dropped())
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 800 {
		t.Fatalf("jsonl lost events: %d", got)
	}
}

func TestNop(t *testing.T) {
	Nop{}.Emit(0, "anything", nil) // must not panic
}
