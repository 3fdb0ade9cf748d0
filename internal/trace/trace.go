// Package trace records structured per-rank events from a sort run as
// JSON lines: the spans of its phases, each carrying what the phase
// decided and moved, and the few point events no span covers. Traces make the adaptive decisions (τm/τo/τs branches, pivot
// duplication, per-destination send counts) observable after the fact,
// which is how the experiments' claims were debugged and is what a
// production operator would ship to their log pipeline.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one trace record. Fields are flat for painless ingestion.
type Event struct {
	// Seq is the event's sequence number within its tracer.
	Seq int64 `json:"seq"`
	// ElapsedUS is microseconds since the tracer was created.
	ElapsedUS int64 `json:"elapsed_us"`
	// UnixUS is the wall-clock emission time in microseconds since the
	// Unix epoch. Unlike ElapsedUS it is comparable across processes
	// (after clock-offset correction — see comm.SyncClocks and the
	// clock.offset event), which is what lets sdstrace project per-rank
	// events onto one global timeline. Zero in traces written before
	// the field existed.
	UnixUS int64 `json:"unix_us,omitempty"`
	// Rank is the communicator rank that emitted the event.
	Rank int `json:"rank"`
	// Kind names the event (phase, decision, exchange, partition...).
	Kind string `json:"kind"`
	// Detail is the event-specific payload.
	Detail map[string]any `json:"detail,omitempty"`
}

// Tracer receives events. Implementations must be safe for concurrent
// use: in-process clusters emit from many rank goroutines at once.
type Tracer interface {
	Emit(rank int, kind string, detail map[string]any)
}

// Nop discards everything; useful as a default.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(int, string, map[string]any) {}

// JSONL writes one JSON object per event to an io.Writer.
type JSONL struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	seq   int64
	start time.Time
	err   error
	file  *os.File // the trace file CreateJSONL opened, which Close closes
}

// NewJSONL wraps w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, enc: json.NewEncoder(w), start: time.Now()}
}

// CreateJSONL creates the trace file at path and returns a JSONL writing
// to it. Close finalises it.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := NewJSONL(f)
	j.file = f
	return j, nil
}

// Close closes the file of a CreateJSONL tracer and returns the first
// write error, which leaves the trace incomplete, else the close error.
// JSONL latches its first write error, so a command that skipped this
// check would ship a trace a full disk had silently truncated.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	cerr := j.file.Close()
	if j.err != nil {
		return fmt.Errorf("write failed, %s is incomplete: %w", j.file.Name(), j.err)
	}
	if cerr != nil {
		return fmt.Errorf("close %s: %w", j.file.Name(), cerr)
	}
	return nil
}

// Emit implements Tracer.
func (j *JSONL) Emit(rank int, kind string, detail map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	now := time.Now()
	j.err = j.enc.Encode(Event{
		Seq:       j.seq,
		ElapsedUS: now.Sub(j.start).Microseconds(),
		UnixUS:    now.UnixMicro(),
		Rank:      rank,
		Kind:      kind,
		Detail:    detail,
	})
}

// Err reports the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
