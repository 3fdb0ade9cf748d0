// Package comm is an MPI-style message-passing runtime: ranked processes
// exchanging tagged byte messages point-to-point, with the collectives
// (barrier, broadcast, gather, all-gather, all-to-all) and communicator
// splitting that SDS-Sort needs. It is the substrate the paper gets from
// Cray MPI on Edison; here it runs over pluggable transports — an
// in-process transport (goroutine ranks, channel-free mailboxes) and a
// TCP transport (package tcpcomm) for genuinely distributed runs.
//
// Semantics mirror MPI where SDS-Sort depends on them:
//
//   - Messages between a (sender, receiver, communicator, tag) tuple are
//     delivered in send order (non-overtaking), which the stable version
//     of SDS-Sort relies on to keep duplicate keys rank-ordered.
//   - Communicators isolate message contexts: traffic on a communicator
//     produced by Split can never match receives on its parent.
//   - Send is eager: it completes without a matching Recv having been
//     posted. With the FIFO order above, that is all the paper's
//     overlapped all-to-all (SdssAlltoallvAsync) needs from the runtime:
//     a sender goroutine beside blocking Recvs.
package comm

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
)

// Transport moves tagged byte messages between world ranks. Transports
// must deliver messages for a given (src, dst, ctx, tag) in send order
// and must allow Send to complete without a matching Recv having been
// posted (buffered, eager semantics).
//
// A transport may also implement Poster, MPI's pre-posted receive: a
// receiver that knows where a source's next bytes belong posts that
// region, and the transport writes arriving payloads straight into it
// instead of into a buffer of its own that the receiver then copies.
// Both built-in transports do. Decorators that embed a Transport
// (WithRetry, faultnet, simnet) hide the capability, so their traffic
// takes the copying path unchanged.
type Transport interface {
	// Rank is this process's rank in the world (0..Size-1).
	Rank() int
	// Size is the number of ranks in the world.
	Size() int
	// Node identifies the physical node this rank runs on; ranks with
	// equal Node values share memory/locality (MPI_COMM_TYPE_SHARED).
	Node() int
	// NodeOf reports the node of an arbitrary world rank.
	NodeOf(rank int) int
	// Send delivers data to world rank dst. The transport must not
	// retain data after Send returns; callers may reuse the buffer.
	Send(dst int, ctx uint64, tag int32, data []byte) error
	// Recv blocks until a message from world rank src with the given
	// context and tag arrives, and returns its payload.
	Recv(src int, ctx uint64, tag int32) ([]byte, error)
	// Close releases transport resources for this rank.
	Close() error
}

// Poster is the optional Transport capability behind receiving in
// place. Post(src, ctx, tag, region) asks that the next payload bytes
// from world rank src on (ctx, tag) — after whatever of that key is
// already queued or in flight — be written into region, message after
// message, so the Recvs returning them return subslices of region, each
// at the offset the receiver would have copied it to. A message that
// arrives before the post, or would overrun the region, is delivered in
// a buffer of its own as usual; the receiver copies it into place. A key
// holds one post at a time.
//
// Revoke withdraws the post and returns only once no write into region
// is in flight and no undelivered message aliases it, so the caller may
// hand region on. It must not wait on the sender: a write into region
// that has stalled is cut short, its payload delivered, if ever, in a
// buffer of its own. A receiver must revoke every post on every exit —
// success, error or peer loss — before the region escapes.
type Poster interface {
	Post(src int, ctx uint64, tag int32, region []byte)
	Revoke(src int, ctx uint64, tag int32)
}

// Reserved internal tag space. User tags must be non-negative; all
// internal collective traffic uses negative tags so it can never match a
// user receive on the same communicator.
const (
	tagBarrier int32 = -1 - iota*16 // 16 tags reserved per collective for rounds
	tagBcast
	tagGather
	tagAllgather
	tagAlltoall
	tagReduce
)

// ErrClosed is returned by operations on a closed communicator/transport.
var ErrClosed = errors.New("comm: closed")

// Comm is a communicator: a group of ranks with an isolated message
// context. The zero value is not usable; obtain one from New or Split.
type Comm struct {
	tr    Transport
	group []int  // world ranks of members, index = communicator rank
	rank  int    // my rank within group
	ctx   uint64 // message context, unique per communicator
	name  string // hierarchical name the context is derived from
	owned bool   // whether Close tears down the transport

	mu       sync.Mutex
	splitSeq int // number of Splits performed, for child naming
}

// New wraps a transport as the world communicator. Every rank of the
// world must call New on its own transport instance.
func New(tr Transport) *Comm {
	return NewNamed(tr, "world")
}

// NewNamed is New with an explicit communicator name. The name seeds
// the context hash that tags every frame, so two worlds with different
// names never exchange frames even over a shared fabric — recovery
// epochs use this ("world@e1", "world@e2", ...) to make any straggling
// frame from a torn-down epoch undeliverable in the next one. All
// ranks of a world must of course agree on the name.
func NewNamed(tr Transport, name string) *Comm {
	c := Attach(tr, name)
	c.owned = true
	return c
}

// Attach is NewNamed without transport ownership: the returned world
// communicator spans every rank of tr and isolates its traffic under
// name's context, but its Close never tears the transport down. This is
// the constructor for multiplexing several communicators — one per job
// — over one long-lived fabric: each job attaches under its own name
// ("world/job0", "world/job1", ...) and discards its communicator
// without disturbing the fabric or its sibling jobs. All ranks must of
// course agree on the name.
func Attach(tr Transport, name string) *Comm {
	group := make([]int, tr.Size())
	for i := range group {
		group[i] = i
	}
	return &Comm{tr: tr, group: group, rank: tr.Rank(), name: name, ctx: ctxOf(name)}
}

// AttachGroup is Attach restricted to an explicit subset of the
// transport's world ranks — the membership-change primitive behind
// degraded-mode resume. The survivors of a rank failure each call it
// with the same base name and the same group (world ranks, strictly
// ascending); the returned communicator spans exactly those ranks,
// renumbered 0..len(group)-1 in group order, over the still-live
// transport: no fabric teardown, no re-registration. The calling rank
// must be a member.
//
// The message context is derived from the name *and* the member list
// (the group is folded into the communicator's name, so every derived
// Split/SplitByNode context inherits it too). Two shrunken worlds that
// disagree on who survived therefore never exchange a frame — a
// membership disagreement surfaces as a timeout on the first
// collective, not as records delivered into the wrong world.
//
// Like Attach, the result never owns the transport.
func AttachGroup(tr Transport, name string, group []int) (*Comm, error) {
	if len(group) == 0 {
		return nil, fmt.Errorf("comm: attach group is empty")
	}
	me := -1
	for i, r := range group {
		if r < 0 || r >= tr.Size() {
			return nil, fmt.Errorf("comm: group rank %d outside world of %d", r, tr.Size())
		}
		if i > 0 && r <= group[i-1] {
			return nil, fmt.Errorf("comm: group ranks must be strictly ascending, got %d after %d", r, group[i-1])
		}
		if r == tr.Rank() {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("comm: rank %d is not a member of group %v", tr.Rank(), group)
	}
	full := fmt.Sprintf("%s[%s]", name, groupSig(group))
	return &Comm{
		tr:    tr,
		group: append([]int(nil), group...),
		rank:  me,
		name:  full,
		ctx:   ctxOf(full),
	}, nil
}

// groupSig renders a member list compactly ("0.1.3") for embedding in
// a communicator name.
func groupSig(group []int) string {
	var b strings.Builder
	for i, r := range group {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	return b.String()
}

func ctxOf(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Node returns the node id of the calling rank.
func (c *Comm) Node() int { return c.tr.Node() }

// NodeOf returns the node id of communicator rank r.
func (c *Comm) NodeOf(r int) int { return c.tr.NodeOf(c.group[r]) }

// WorldRank translates a communicator rank to the underlying world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

// Transport exposes the underlying transport (used by the simnet
// decorator and by tests).
func (c *Comm) Transport() Transport { return c.tr }

// Send delivers data to communicator rank dst with the given tag.
// tag must be non-negative.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkPeer(dst, tag); err != nil {
		return err
	}
	return c.tr.Send(c.group[dst], c.ctx, int32(tag), data)
}

// Recv blocks until a message from communicator rank src with tag
// arrives and returns its payload.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if err := c.checkPeer(src, tag); err != nil {
		return nil, err
	}
	return c.tr.Recv(c.group[src], c.ctx, int32(tag))
}

// post posts region for src on tag when the transport can, and reports
// whether it did.
func (c *Comm) post(src int, tag int32, region []byte) bool {
	ps, ok := c.tr.(Poster)
	if ok && len(region) > 0 {
		ps.Post(c.group[src], c.ctx, tag, region)
	}
	return ok && len(region) > 0
}

// revoke withdraws a post that post made.
func (c *Comm) revoke(src int, tag int32) {
	c.tr.(Poster).Revoke(c.group[src], c.ctx, tag)
}

func (c *Comm) checkPeer(r, tag int) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("comm: rank %d out of range [0,%d)", r, len(c.group))
	}
	if tag < 0 {
		return fmt.Errorf("comm: negative tag %d is reserved", tag)
	}
	return nil
}

func (c *Comm) sendInternal(dst int, tag int32, data []byte) error {
	return c.tr.Send(c.group[dst], c.ctx, tag, data)
}

func (c *Comm) recvInternal(src int, tag int32) ([]byte, error) {
	return c.tr.Recv(c.group[src], c.ctx, tag)
}

// Split partitions the communicator by color, as MPI_Comm_split does:
// ranks passing the same color form a new communicator, ordered by
// (key, parent rank). Ranks passing a negative color receive nil.
// Split is collective: every member of c must call it.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Exchange (color, key) among all members.
	payload := EncodeInt64s([]int64{int64(color), int64(key)})
	all, err := c.Allgather(payload)
	if err != nil {
		return nil, fmt.Errorf("comm: split allgather: %w", err)
	}
	type member struct{ key, rank int }
	var mine []member
	for r, buf := range all {
		vals, err := DecodeInt64s(buf)
		if err != nil || len(vals) != 2 {
			return nil, fmt.Errorf("comm: split: bad payload from rank %d", r)
		}
		if int(vals[0]) == color {
			mine = append(mine, member{int(vals[1]), r})
		}
	}

	c.mu.Lock()
	c.splitSeq++
	seq := c.splitSeq
	c.mu.Unlock()

	if color < 0 {
		return nil, nil
	}
	// mine ascends by parent rank, so a stable sort by key orders it
	// by (key, parent rank).
	slices.SortStableFunc(mine, func(a, b member) int { return cmp.Compare(a.key, b.key) })
	group := make([]int, len(mine))
	myIdx := -1
	for i, m := range mine {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			myIdx = i
		}
	}
	if myIdx < 0 {
		return nil, fmt.Errorf("comm: split: caller missing from its own color group")
	}
	name := fmt.Sprintf("%s/%d:%d", c.name, seq, color)
	return &Comm{
		tr:    c.tr,
		group: group,
		rank:  myIdx,
		ctx:   ctxOf(name),
		name:  name,
	}, nil
}

// SplitByNode is MPI_Comm_split_type(MPI_COMM_TYPE_SHARED) followed by a
// leader split, the refinement step the paper's SdssRefineComm performs:
// it returns the node-local communicator (all ranks of c on this node)
// and, on each node's lowest rank, the cross-node leader communicator
// (nil on non-leader ranks).
//
// Unlike the general Split, the node layout is already known to every
// rank through the transport, so this split exchanges no messages — it
// must still be called collectively (every rank of c, the same number of
// times) so the derived message contexts line up.
func (c *Comm) SplitByNode() (local, leaders *Comm, err error) {
	c.mu.Lock()
	c.splitSeq++
	seq := c.splitSeq
	c.mu.Unlock()

	myNode := c.Node()
	var localGroup []int  // world ranks on my node, in comm-rank order
	var leaderGroup []int // world ranks of each node's first rank
	seen := make(map[int]bool)
	myLocalIdx, myLeaderIdx := -1, -1
	for r := 0; r < len(c.group); r++ {
		n := c.NodeOf(r)
		if n == myNode {
			if r == c.rank {
				myLocalIdx = len(localGroup)
			}
			localGroup = append(localGroup, c.group[r])
		}
		if !seen[n] {
			seen[n] = true
			if r == c.rank {
				myLeaderIdx = len(leaderGroup)
			}
			leaderGroup = append(leaderGroup, c.group[r])
		}
	}
	if myLocalIdx < 0 {
		return nil, nil, fmt.Errorf("comm: rank %d missing from its own node group", c.rank)
	}
	localName := fmt.Sprintf("%s/%d:node%d", c.name, seq, myNode)
	local = &Comm{tr: c.tr, group: localGroup, rank: myLocalIdx, ctx: ctxOf(localName), name: localName}
	if myLeaderIdx < 0 {
		return local, nil, nil
	}
	leaderName := fmt.Sprintf("%s/%d:leaders", c.name, seq)
	leaders = &Comm{tr: c.tr, group: leaderGroup, rank: myLeaderIdx, ctx: ctxOf(leaderName), name: leaderName}
	return local, leaders, nil
}

// Close releases the communicator. Only a root communicator built by
// New/NewNamed owns the transport; closing a communicator derived by
// Split, SplitByNode or Dup — or attached with Attach — is a no-op, so
// a job can discard its job-scoped communicators without tearing down
// the fabric its siblings are still using.
func (c *Comm) Close() error {
	if c.owned {
		return c.tr.Close()
	}
	return nil
}
