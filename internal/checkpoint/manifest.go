// Package checkpoint snapshots each rank's working set at the sort's
// phase boundaries so a supervised job can resume after losing a rank
// instead of restarting from scratch. A checkpoint is two files per
// (epoch, phase, rank): a data file of fixed-width records in the
// codec's wire format (written through internal/recordio) and a small
// binary manifest recording what the data file must contain. The
// manifest is written last, with an atomic rename, so its presence and
// validity is the commit point; a kill between the two files leaves a
// checkpoint that simply fails validation and is ignored.
//
// Consistency is global, never per rank: a cut (epoch, phase) is usable
// only when every rank of the job holds a valid manifest for it (see
// Store.LatestConsistent). Ranks therefore never coordinate while
// checkpointing — the phase boundaries of the SDS-Sort driver are
// already collective, which makes them consistent cut points for free.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Phase identifies a checkpointed phase boundary of the sort driver.
// Later phases strictly supersede earlier ones within an epoch.
type Phase uint8

const (
	// PhaseNone is the zero value: no checkpoint, cold start.
	PhaseNone Phase = iota
	// PhaseLocalSort is the boundary after the initial local ordering
	// (Fig. 1 line 2): the data file holds the rank's sorted input.
	PhaseLocalSort
	// PhasePartition is the boundary after pivot selection and the
	// skew-aware partition (lines 8-10): the data file holds the
	// (possibly node-merged) working set and the manifest carries the
	// send boundaries.
	PhasePartition
	// PhaseFinal is the boundary after the exchange and final local
	// ordering (lines 15-27): the data file is the rank's block of the
	// sorted output.
	PhaseFinal
)

// String names the phase as it appears in file names and traces.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseLocalSort:
		return "localsort"
	case PhasePartition:
		return "partition"
	case PhaseFinal:
		return "final"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Cut names a globally consistent resume point: every rank of the job
// holds a valid checkpoint for this epoch and phase. The zero value
// (PhaseNone) means "no checkpoint — start cold".
type Cut struct {
	Epoch int
	Phase Phase
}

// Manifest describes one rank's checkpoint at one phase boundary.
type Manifest struct {
	// Epoch is the recovery epoch that wrote the checkpoint (0 = the
	// job's first attempt).
	Epoch int
	// Phase is the boundary the snapshot was taken at.
	Phase Phase
	// Rank is the communicator rank that owns the snapshot.
	Rank int
	// World is the rank count of the world that wrote the snapshot (0 =
	// unknown, for manifests built by hand). The store stamps it on
	// every commit and rejects manifests whose World disagrees with its
	// own rank count: a cut written for a p-rank world must never look
	// consistent to a (p−1)-rank store, or a shrunken job would silently
	// drop the extra rank's records — and vice versa, a full-world
	// relaunch must not resume from a degraded world's redistributed
	// snapshots.
	World int
	// Records is the number of records in the data file.
	Records int64
	// RecordSize is the codec's fixed record width in bytes.
	RecordSize int
	// Checksum is the CRC-32C of the data file's bytes (widened to
	// u64; the wire format reserves the full word). CRC-32C is
	// hardware-accelerated — the data hash sits on the sort's critical
	// path, unlike the manifest's own FNV self-checksum, which covers
	// a few dozen bytes.
	Checksum uint64
	// Merged records whether node-level merging (τm) fired this run;
	// on resume it tells every rank whether to replay the
	// communication-free SplitByNode that rebuilt the communicator.
	Merged bool
	// Leader reports whether this rank still holds data after the τm
	// merge (always true when Merged is false).
	Leader bool
	// Bounds are the partition send boundaries (PhasePartition only).
	Bounds []int64
}

const (
	manifestMagic = "SDCK"
	// Version 2 added the world field; version-1 manifests (which
	// predate elastic worlds) are rejected as corrupt, which merely
	// invalidates pre-upgrade spill directories — checkpoints are
	// per-job scratch state, not an archival format.
	manifestVersion = 2
	// fixed part: magic 4 | version u16 | phase u8 | flags u8 |
	// epoch u32 | rank u32 | world u32 | records i64 | recsize u32 |
	// datasum u64 | nbounds u32; followed by nbounds i64 and a trailing
	// u64 FNV-64a self-checksum over everything before it.
	manifestFixed = 4 + 2 + 1 + 1 + 4 + 4 + 4 + 8 + 4 + 8 + 4
	maxBounds     = 1 << 24 // sanity bound: p+1 entries for any plausible p

	flagMerged = 1 << 0
	flagLeader = 1 << 1
)

// ErrCorrupt reports a manifest that failed structural validation —
// truncated, bad magic/version, inconsistent lengths, or a checksum
// mismatch — or a data file that disagrees with its manifest. A corrupt
// manifest invalidates its (epoch, phase, rank) checkpoint, which in
// turn excludes that cut from LatestConsistent.
var ErrCorrupt = errors.New("checkpoint: corrupt manifest")

// holds reports whether a data file of size bytes is exactly the
// manifest's Records records of RecordSize bytes, without the product
// overflowing.
func (m *Manifest) holds(size int64) bool {
	if m.Records == 0 || size == 0 {
		return m.Records == 0 && size == 0
	}
	rs := int64(m.RecordSize)
	return rs > 0 && size%rs == 0 && size/rs == m.Records
}

// Encode renders the manifest in its binary wire form.
func (m *Manifest) Encode() []byte {
	buf := make([]byte, manifestFixed+8*len(m.Bounds)+8)
	copy(buf, manifestMagic)
	binary.LittleEndian.PutUint16(buf[4:], manifestVersion)
	buf[6] = byte(m.Phase)
	var flags byte
	if m.Merged {
		flags |= flagMerged
	}
	if m.Leader {
		flags |= flagLeader
	}
	buf[7] = flags
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.Epoch))
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.Rank))
	binary.LittleEndian.PutUint32(buf[16:], uint32(m.World))
	binary.LittleEndian.PutUint64(buf[20:], uint64(m.Records))
	binary.LittleEndian.PutUint32(buf[28:], uint32(m.RecordSize))
	binary.LittleEndian.PutUint64(buf[32:], m.Checksum)
	binary.LittleEndian.PutUint32(buf[40:], uint32(len(m.Bounds)))
	off := manifestFixed
	for _, b := range m.Bounds {
		binary.LittleEndian.PutUint64(buf[off:], uint64(b))
		off += 8
	}
	h := fnv.New64a()
	h.Write(buf[:off])
	binary.LittleEndian.PutUint64(buf[off:], h.Sum64())
	return buf
}

// DecodeManifest parses and validates the binary form. Any structural
// defect — truncation, trailing bytes, bad magic, unknown version or
// phase, impossible sizes, checksum mismatch — returns an error
// wrapping ErrCorrupt.
func DecodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < manifestFixed+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrCorrupt, len(buf))
	}
	if string(buf[:4]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != manifestVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, v)
	}
	ph := Phase(buf[6])
	if ph != PhaseLocalSort && ph != PhasePartition && ph != PhaseFinal {
		return nil, fmt.Errorf("%w: invalid phase %d", ErrCorrupt, buf[6])
	}
	if buf[7]&^(flagMerged|flagLeader) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, buf[7])
	}
	nbounds := binary.LittleEndian.Uint32(buf[40:])
	if nbounds > maxBounds {
		return nil, fmt.Errorf("%w: %d bounds exceeds limit", ErrCorrupt, nbounds)
	}
	want := manifestFixed + 8*int(nbounds) + 8
	if len(buf) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d bounds, want %d", ErrCorrupt, len(buf), nbounds, want)
	}
	h := fnv.New64a()
	h.Write(buf[:want-8])
	if sum := binary.LittleEndian.Uint64(buf[want-8:]); sum != h.Sum64() {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	records := int64(binary.LittleEndian.Uint64(buf[20:]))
	recSize := int(binary.LittleEndian.Uint32(buf[28:]))
	if records < 0 {
		return nil, fmt.Errorf("%w: negative record count", ErrCorrupt)
	}
	if records > 0 && recSize <= 0 {
		return nil, fmt.Errorf("%w: %d records with record size %d", ErrCorrupt, records, recSize)
	}
	m := &Manifest{
		Epoch:      int(binary.LittleEndian.Uint32(buf[8:])),
		Phase:      ph,
		Rank:       int(binary.LittleEndian.Uint32(buf[12:])),
		World:      int(binary.LittleEndian.Uint32(buf[16:])),
		Records:    records,
		RecordSize: recSize,
		Checksum:   binary.LittleEndian.Uint64(buf[32:]),
		Merged:     buf[7]&flagMerged != 0,
		Leader:     buf[7]&flagLeader != 0,
	}
	if nbounds > 0 {
		m.Bounds = make([]int64, nbounds)
		off := manifestFixed
		for i := range m.Bounds {
			m.Bounds[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return m, nil
}
