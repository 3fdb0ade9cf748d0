package comm

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Barrier blocks until every rank of the communicator has entered it.
// It uses the dissemination algorithm: ceil(log2(p)) rounds of
// shifted send/recv pairs, so it is O(log p) over any transport.
func (c *Comm) Barrier() error {
	p := len(c.group)
	if p == 1 {
		return nil
	}
	for k, round := 1, 0; k < p; k, round = k*2, round+1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		tag := tagBarrier - int32(round)
		if err := c.sendInternal(dst, tag, nil); err != nil {
			return fmt.Errorf("comm: barrier send: %w", err)
		}
		if _, err := c.recvInternal(src, tag); err != nil {
			return fmt.Errorf("comm: barrier recv: %w", err)
		}
	}
	return nil
}

// Bcast distributes root's data to every rank using a binomial tree and
// returns it on all ranks. Non-root callers pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	p := len(c.group)
	if root < 0 || root >= p {
		return nil, fmt.Errorf("comm: bcast root %d out of range", root)
	}
	if p == 1 {
		return data, nil
	}
	// Rotate ranks so the root is virtual rank 0.
	vr := (c.rank - root + p) % p
	if vr != 0 {
		// Receive from parent: clear the lowest set bit of vr.
		parent := (vr&(vr-1) + root) % p
		var err error
		data, err = c.recvInternal(parent, tagBcast)
		if err != nil {
			return nil, fmt.Errorf("comm: bcast recv: %w", err)
		}
	}
	// Forward to children: vr + 2^k for each k above vr's lowest bits.
	for mask := 1; mask < p; mask *= 2 {
		if vr&mask != 0 {
			break
		}
		childVr := vr + mask
		if childVr >= p {
			break
		}
		child := (childVr + root) % p
		if err := c.sendInternal(child, tagBcast, data); err != nil {
			return nil, fmt.Errorf("comm: bcast send: %w", err)
		}
	}
	return data, nil
}

// Gather collects each rank's data at root. On root it returns one
// payload per rank indexed by communicator rank; elsewhere it returns
// nil. Payload sizes may differ per rank (gatherv semantics).
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	p := len(c.group)
	if root < 0 || root >= p {
		return nil, fmt.Errorf("comm: gather root %d out of range", root)
	}
	if c.rank != root {
		if err := c.sendInternal(root, tagGather, data); err != nil {
			return nil, fmt.Errorf("comm: gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, p)
	out[root] = data
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		buf, err := c.recvInternal(r, tagGather)
		if err != nil {
			return nil, fmt.Errorf("comm: gather recv from %d: %w", r, err)
		}
		out[r] = buf
	}
	return out, nil
}

// Allgather collects every rank's data on every rank (allgatherv:
// payload sizes may differ). The result is indexed by communicator rank.
// It is Bruck's allgather: ceil(log2(p)) rounds for any p. Rank r holds
// the payloads of ranks r, r+1, ... (mod p); in round k it sends the
// first min(2^k, p-2^k) of them to rank r-2^k as one packed message and
// appends the ones rank r+2^k sends back.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	p := len(c.group)
	held := make([][]byte, 1, p)
	held[0] = data
	for k, round := 1, 0; k < p; k, round = k*2, round+1 {
		tag := tagAllgather - int32(round)
		n := min(k, p-k)
		if err := c.sendInternal((c.rank-k+p)%p, tag, packFrames(held[:n])); err != nil {
			return nil, fmt.Errorf("comm: allgather send: %w", err)
		}
		buf, err := c.recvInternal((c.rank+k)%p, tag)
		var parts [][]byte
		if err == nil {
			parts, err = unpackFrames(buf)
		}
		if err == nil && len(parts) != n {
			err = fmt.Errorf("got %d payloads, want %d", len(parts), n)
		}
		if err != nil {
			return nil, fmt.Errorf("comm: allgather recv: %w", err)
		}
		held = append(held, parts...)
	}
	out := make([][]byte, p)
	for i, b := range held {
		out[(c.rank+i)%p] = b
	}
	return out, nil
}

// Alltoall performs a personalized all-to-all exchange: parts[i] is sent
// to rank i, and the result's element i is the payload received from
// rank i. Payload sizes may differ (alltoallv semantics: in MPI terms
// this is MPI_Alltoallv with the counts carried by the messages
// themselves). Entry i == Rank() is copied locally without touching the
// transport.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	p := len(c.group)
	if len(parts) != p {
		return nil, fmt.Errorf("comm: alltoall needs %d parts, got %d", p, len(parts))
	}
	out := make([][]byte, p)
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	for i := 1; i < p; i++ {
		dst := (c.rank + i) % p
		if err := c.sendInternal(dst, tagAlltoall, parts[dst]); err != nil {
			return nil, fmt.Errorf("comm: alltoall send to %d: %w", dst, err)
		}
	}
	for i := 1; i < p; i++ {
		src := (c.rank - i + p) % p
		buf, err := c.recvInternal(src, tagAlltoall)
		if err != nil {
			return nil, fmt.Errorf("comm: alltoall recv from %d: %w", src, err)
		}
		out[src] = buf
	}
	return out, nil
}

// AllgatherInt64 exchanges one int64 per rank and returns the vector on
// every rank, a convenience for the count exchanges in the stable
// partition (Fig 2 line 12 of the paper).
func (c *Comm) AllgatherInt64(v int64) ([]int64, error) {
	parts, err := c.Allgather(EncodeInt64s([]int64{v}))
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(parts))
	for r, buf := range parts {
		vals, err := DecodeInt64s(buf)
		if err != nil || len(vals) != 1 {
			return nil, fmt.Errorf("comm: allgather int64: bad payload from rank %d", r)
		}
		out[r] = vals[0]
	}
	return out, nil
}

// AllreduceInt64 folds one value per rank with op (which must be
// associative and commutative) and returns the result on every rank.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) (int64, error) {
	out, err := c.AllreduceInt64s([]int64{v}, op)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// AllreduceInt64s folds every rank's vector element-wise with op (which
// must be associative and commutative) and returns the result on every
// rank. All ranks pass vectors of one length. It is a binomial reduce to
// rank 0 followed by Bcast, so no rank ever holds more than two vectors.
func (c *Comm) AllreduceInt64s(vals []int64, op func(a, b int64) int64) ([]int64, error) {
	p := len(c.group)
	acc := slices.Clone(vals)
	// Rank r folds in rank r+mask for every mask below its lowest set
	// bit, then hands the partial fold to rank r-mask.
	mask := 1
	for ; mask < p && c.rank&mask == 0; mask *= 2 {
		if c.rank+mask >= p {
			continue
		}
		buf, err := c.recvInternal(c.rank+mask, tagReduce)
		var in []int64
		if err == nil {
			in, err = DecodeInt64s(buf)
		}
		if err == nil && len(in) != len(acc) {
			err = fmt.Errorf("got %d values, want %d", len(in), len(acc))
		}
		if err != nil {
			return nil, fmt.Errorf("comm: reduce recv: %w", err)
		}
		for i, v := range in {
			acc[i] = op(acc[i], v)
		}
	}
	packed := EncodeInt64s(acc)
	if c.rank != 0 {
		if err := c.sendInternal(c.rank-mask, tagReduce, packed); err != nil {
			return nil, fmt.Errorf("comm: reduce send: %w", err)
		}
	}
	packed, err := c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	return DecodeInt64s(packed)
}

// packFrames concatenates variable-size payloads with u32 length
// prefixes so they travel as one message.
func packFrames(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	buf := make([]byte, 0, total)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	buf = append(buf, hdr[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	return buf
}

func unpackFrames(buf []byte) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("comm: short frame pack")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Every frame carries a 4-byte header, so a count the bytes cannot
	// hold is a lie; it must not size the allocation.
	out := make([][]byte, 0, min(n, len(buf)/4))
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("comm: truncated frame header")
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return nil, fmt.Errorf("comm: truncated frame body")
		}
		out = append(out, buf[:l:l])
		buf = buf[l:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after %d frames", len(buf), n)
	}
	return out, nil
}

// EncodeInt64s is the int64-vector wire format of the collectives and
// of algorithm packages that exchange counts and displacements.
func EncodeInt64s(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

// DecodeInt64s decodes a vector produced by EncodeInt64s.
func DecodeInt64s(buf []byte) ([]int64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("comm: int payload length %d not a multiple of 8", len(buf))
	}
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}
