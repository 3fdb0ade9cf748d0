package tcpcomm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
	"unsafe"

	"sdssort/internal/comm"
)

// fuzzFrame is one frame of a decoded fuzz stream.
type fuzzFrame struct {
	seq  uint64
	tag  int32
	body []byte
}

const (
	fuzzCtx    = 77
	fuzzPosted = int32(5) // the tag whose region is posted
	fuzzOther  = int32(6)
)

// decodeFrameStream turns fuzz bytes into the wire bytes of one
// connection from rank 1, three bytes per frame: kind, length, and a
// parameter. Kinds: the next frame in sequence; a frame ahead of
// sequence; a retransmission of an earlier frame; and, ending the
// stream, an oversize header, a truncated body or a foreign source. A
// sequence number always carries the same tag and body, as a
// retransmission does. It returns the stream and the frames the reader
// can admit, in stream order.
func decodeFrameStream(data []byte) ([]byte, []fuzzFrame) {
	var wire []byte
	var frames []fuzzFrame
	content := map[uint64]fuzzFrame{}
	var next uint64
	var sent []uint64
	emit := func(seq uint64, tagBit, n byte) fuzzFrame {
		f, ok := content[seq]
		if !ok {
			f = fuzzFrame{seq: seq, tag: fuzzPosted, body: make([]byte, n%48)}
			if tagBit&1 == 1 {
				f.tag = fuzzOther
			}
			for i := range f.body {
				f.body[i] = byte(seq*13 + uint64(i))
			}
			content[seq] = f
		}
		return f
	}
	header := func(src uint32, f fuzzFrame, n uint32) {
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], src)
		binary.LittleEndian.PutUint64(hdr[4:], fuzzCtx)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(f.tag))
		binary.LittleEndian.PutUint32(hdr[16:], n)
		binary.LittleEndian.PutUint64(hdr[20:], f.seq)
		wire = append(wire, hdr[:]...)
	}
	for ; len(data) >= 3; data = data[3:] {
		kind, n, param := data[0], data[1], data[2]
		var f fuzzFrame
		switch kind % 8 {
		case 0, 1, 2: // in order
			f = emit(next, kind>>3, n)
			next++
		case 3: // ahead of sequence
			f = emit(next+1+uint64(param%3), kind>>3, n)
		case 4: // retransmission
			if len(sent) == 0 {
				continue
			}
			f = content[sent[int(param)%len(sent)]]
		case 5: // oversize: the reader drops the connection at the header
			header(1, emit(next, kind>>3, n), MaxFrameSize+1)
			return wire, frames
		case 6: // truncated body
			f = emit(next, kind>>3, n)
			header(1, f, uint32(len(f.body))+1+uint32(param%8))
			wire = append(wire, f.body...)
			return wire, frames
		case 7: // a frame naming another source
			header(0, emit(next, kind>>3, n), uint32(n%48))
			return wire, frames
		}
		header(1, f, uint32(len(f.body)))
		wire = append(wire, f.body...)
		frames = append(frames, f)
		sent = append(sent, f.seq)
	}
	return wire, frames
}

// referenceDeliveries applies the dedup-and-reorder contract to frames:
// what the mailbox must hold afterwards, per tag, in delivery order.
func referenceDeliveries(frames []fuzzFrame) map[int32][][]byte {
	out := map[int32][][]byte{}
	pending := map[uint64]fuzzFrame{}
	var expected uint64
	for _, f := range frames {
		if f.seq < expected {
			continue
		}
		pending[f.seq] = f
		for {
			g, ok := pending[expected]
			if !ok {
				break
			}
			delete(pending, expected)
			out[g.tag] = append(out[g.tag], g.body)
			expected++
		}
	}
	return out
}

// FuzzFrameReader feeds decoded frame streams through one connection's
// reader, with and without a region posted for one tag. The reader must
// not panic, must write nothing outside the region, must deliver exactly
// the payloads the reference decode does, in order, and every payload
// delivered in place must sit at the offset its consumer would copy it
// to.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 16, 0, 0, 4, 0}, uint16(64), true)
	f.Add([]byte{3, 8, 0, 0, 16, 0, 0, 4, 0, 4, 0, 1}, uint16(20), true)
	f.Add([]byte{0, 40, 0, 8, 12, 0, 6, 30, 5}, uint16(50), true)
	f.Add([]byte{0, 8, 0, 5, 0, 0}, uint16(8), false)
	f.Add([]byte{0, 47, 0, 0, 47, 0, 7, 3, 3}, uint16(60), true)
	f.Fuzz(func(t *testing.T, data []byte, regionLen uint16, posted bool) {
		if len(data) > 3*512 {
			return
		}
		stream, frames := decodeFrameStream(data)
		want := referenceDeliveries(frames)

		tr := &Transport{
			cfg:     Config{Rank: 0, Size: 2, GapTimeout: time.Hour},
			box:     comm.NewMailbox(),
			streams: make(map[int]*srcStream),
			closed:  make(chan struct{}),
		}
		const guard = 16
		backing := bytes.Repeat([]byte{0xA5}, int(regionLen)+2*guard)
		region := backing[guard : guard+int(regionLen) : guard+int(regionLen)]
		if posted {
			tr.Post(1, fuzzCtx, fuzzPosted, region)
		}
		tr.readFrames(nil, bufio.NewReader(bytes.NewReader(stream)), 1)
		for _, s := range tr.streams {
			if s.gap != nil {
				s.gap.Stop()
			}
			if s.land.on {
				t.Fatal("a claim was left open")
			}
		}

		for i := 0; i < guard; i++ {
			if backing[i] != 0xA5 || backing[len(backing)-1-i] != 0xA5 {
				t.Fatal("the reader wrote outside the posted region")
			}
		}
		if in, got := tr.stats.FramesInPlace.Load(), tr.stats.FramesReceived.Load(); in > got || !posted && in != 0 {
			t.Fatalf("%d frames in place of %d received (posted %v)", in, got, posted)
		}

		// The reader has returned, so everything it admitted is queued:
		// closing the mailbox turns the takes below non-blocking.
		tr.box.Close()
		for _, tag := range []int32{fuzzPosted, fuzzOther} {
			off := 0
			for i := 0; ; i++ {
				m, err := tr.box.Take(1, fuzzCtx, tag, 0)
				if errors.Is(err, comm.ErrClosed) {
					if i != len(want[tag]) {
						t.Fatalf("tag %d: %d messages delivered, want %d", tag, i, len(want[tag]))
					}
					break
				}
				if i >= len(want[tag]) || !bytes.Equal(m, want[tag][i]) {
					t.Fatalf("tag %d message %d = %x, want per the reference %x", tag, i, m, want[tag])
				}
				if inRegion(m, region) && (tag != fuzzPosted || off >= len(region) || unsafe.SliceData(m) != &region[off]) {
					t.Fatalf("tag %d message %d sits in the region away from its offset %d", tag, i, off)
				}
				off += len(m)
			}
		}
		tr.Revoke(1, fuzzCtx, fuzzPosted)
	})
}

// inRegion reports whether m's bytes start inside region.
func inRegion(m, region []byte) bool {
	if len(m) == 0 || len(region) == 0 {
		return false
	}
	a := uintptr(unsafe.Pointer(unsafe.SliceData(m)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(region)))
	return a >= lo && a < lo+uintptr(len(region))
}
