package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestCreateJSONLClose: a trace file's Close reports nothing for a
// healthy file, and for one whose writes failed (ENOSPC on /dev/full) it
// reports the first write error, naming the file as incomplete.
func TestCreateJSONLClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(0, "e", nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if events, err := ReadJSONL(bytes.NewReader(data)); err != nil || len(events) != 1 {
		t.Fatalf("%d events read back (err %v), want 1", len(events), err)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	if j, err = CreateJSONL("/dev/full"); err != nil {
		t.Skip("cannot open /dev/full for writing")
	}
	j.Emit(0, "e", nil)
	if err := j.Close(); err == nil || !strings.Contains(err.Error(), "/dev/full is incomplete") {
		t.Fatalf("close after a failed write: %v", err)
	}
}

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
