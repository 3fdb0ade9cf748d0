package comm

import (
	"fmt"
	"sync"
)

// World is the in-process transport fabric: size ranks, each backed by a
// mailbox, exchanging messages by memory copy. Ranks are driven by
// goroutines (see package cluster). A World models a whole machine; the
// nodeOf vector assigns ranks to simulated nodes so that SplitByNode and
// the paper's node-level merging behave as they do under MPI on a real
// cluster.
type World struct {
	size   int
	nodeOf []int
	boxes  []*Mailbox

	mu     sync.Mutex
	closed bool
}

// NewWorld creates an in-process fabric with the given number of ranks.
// nodeOf maps each rank to its simulated node id; pass nil to place every
// rank on node 0 (one big shared-memory node).
func NewWorld(size int, nodeOf []int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: world size %d must be positive", size)
	}
	if nodeOf == nil {
		nodeOf = make([]int, size)
	}
	if len(nodeOf) != size {
		return nil, fmt.Errorf("comm: nodeOf has %d entries for %d ranks", len(nodeOf), size)
	}
	w := &World{size: size, nodeOf: append([]int(nil), nodeOf...)}
	w.boxes = make([]*Mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = NewMailbox()
	}
	return w, nil
}

// BlockNodes builds a nodeOf vector for size ranks packed onto nodes of
// coresPerNode consecutive ranks each, the layout MPI job launchers use.
func BlockNodes(size, coresPerNode int) []int {
	if coresPerNode <= 0 {
		coresPerNode = 1
	}
	nodeOf := make([]int, size)
	for i := range nodeOf {
		nodeOf[i] = i / coresPerNode
	}
	return nodeOf
}

// Size returns the fabric's rank count.
func (w *World) Size() int { return w.size }

// Transport returns rank r's endpoint on the fabric.
func (w *World) Transport(r int) Transport {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("comm: transport rank %d out of range [0,%d)", r, w.size))
	}
	return &inprocTransport{w: w, rank: r}
}

// Close shuts the fabric down, unblocking any pending Recv with
// ErrClosed. It is used by tests and by error paths in the launcher.
func (w *World) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	for _, b := range w.boxes {
		b.Close()
	}
	return nil
}

type inprocTransport struct {
	w    *World
	rank int
}

func (t *inprocTransport) Rank() int        { return t.rank }
func (t *inprocTransport) Size() int        { return t.w.size }
func (t *inprocTransport) Node() int        { return t.w.nodeOf[t.rank] }
func (t *inprocTransport) NodeOf(r int) int { return t.w.nodeOf[r] }

func (t *inprocTransport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	if dst < 0 || dst >= t.w.size {
		return fmt.Errorf("comm: send to rank %d out of range [0,%d)", dst, t.w.size)
	}
	// Copy eagerly: the sender is free to reuse its buffer, and the
	// receiver owns what it gets, exactly as with a buffered MPI send.
	// A posted receive region takes the copy itself.
	return t.w.boxes[dst].PutCopy(t.rank, ctx, tag, data)
}

func (t *inprocTransport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	if src < 0 || src >= t.w.size {
		return nil, fmt.Errorf("comm: recv from rank %d out of range [0,%d)", src, t.w.size)
	}
	return t.w.boxes[t.rank].Take(src, ctx, tag, 0)
}

// Post implements Poster: Sends to this rank copy into region.
func (t *inprocTransport) Post(src int, ctx uint64, tag int32, region []byte) {
	t.w.boxes[t.rank].Post(src, ctx, tag, region)
}

// Revoke implements Poster.
func (t *inprocTransport) Revoke(src int, ctx uint64, tag int32) {
	t.w.boxes[t.rank].Revoke(src, ctx, tag)
}

func (t *inprocTransport) Close() error { return nil }
