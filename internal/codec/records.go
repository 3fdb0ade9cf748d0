package codec

import (
	"encoding/binary"
	"math"
)

// PTFRecord models one Palomar Transient Factory detection: the
// real-bogus classifier score used as the sorting key, plus the object
// identifier carried as payload. The paper sorts 1e9 such records whose
// score column is 28.02% duplicated.
type PTFRecord struct {
	Score float64 // real-bogus score, the sorting key
	ObjID uint64  // detected-object identifier (payload)
}

// CompareOrdered returns -1, 0 or +1 as a is below, equal to or above
// b, without a branch: b2i(a > b) - b2i(a < b). NaN compares equal to
// everything and -0 equal to +0, exactly as the `<`/`>` switch it
// replaces; cmp.Compare differs there, ordering NaN first. Comparators
// are what the branchless merge kernels (psort.MergeSome) still pay a
// mispredicted branch for, so the record comparators use it.
func CompareOrdered[K float64 | int64 | uint64](a, b K) int {
	return b2i(a > b) - b2i(a < b)
}

// b2i is 1 for true and 0 for false; it compiles to a flag set, not a
// jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ComparePTF orders PTF records by score only; ObjID is payload and must
// never influence the order (the paper's no-secondary-keys requirement).
func ComparePTF(a, b PTFRecord) int {
	return CompareOrdered(a.Score, b.Score)
}

// PTFCodec serialises PTFRecord in 16 bytes.
type PTFCodec struct{}

func (PTFCodec) Size() int { return 16 }

// ZeroCopy: wire layout (score, objid; both 8 bytes LE) is the struct
// layout.
func (PTFCodec) ZeroCopy() bool { return true }

// Uint64Key: PTF records sort by Score alone, so equal scores have
// equal keys whatever their ObjID.
func (PTFCodec) Uint64Key(r PTFRecord) uint64 { return Float64Key(r.Score) }
func (PTFCodec) KeyField() (int, KeyEnc)      { return 0, KeyFloat }

func (PTFCodec) Marshal(dst []byte, r PTFRecord) {
	binary.LittleEndian.PutUint64(dst[0:], math.Float64bits(r.Score))
	binary.LittleEndian.PutUint64(dst[8:], r.ObjID)
}

func (PTFCodec) Unmarshal(src []byte) PTFRecord {
	return PTFRecord{
		Score: math.Float64frombits(binary.LittleEndian.Uint64(src[0:])),
		ObjID: binary.LittleEndian.Uint64(src[8:]),
	}
}

// Particle models one cosmology-simulation particle as sorted by
// BD-CATS: the cluster ID is the key; position and velocity are payload.
type Particle struct {
	ClusterID int64      // key
	Pos       [3]float32 // x, y, z (payload)
	Vel       [3]float32 // vx, vy, vz (payload)
}

// CompareParticles orders particles by cluster ID only.
func CompareParticles(a, b Particle) int {
	return CompareOrdered(a.ClusterID, b.ClusterID)
}

// ParticleCodec serialises Particle in 32 bytes.
type ParticleCodec struct{}

func (ParticleCodec) Size() int { return 32 }

// ZeroCopy: wire layout (cluster id, 3×pos, 3×vel) is the struct
// layout with no padding.
func (ParticleCodec) ZeroCopy() bool { return true }

// Uint64Key: particles sort by ClusterID; flipping the sign bit makes
// unsigned order match the signed comparator. Records with equal
// cluster ids have equal keys, so the stable LSD pass preserves their
// order.
func (ParticleCodec) Uint64Key(p Particle) uint64 { return uint64(p.ClusterID) ^ (1 << 63) }
func (ParticleCodec) KeyField() (int, KeyEnc)     { return 0, KeyInt }

func (ParticleCodec) Marshal(dst []byte, p Particle) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(p.ClusterID))
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint32(dst[8+4*i:], math.Float32bits(p.Pos[i]))
		binary.LittleEndian.PutUint32(dst[20+4*i:], math.Float32bits(p.Vel[i]))
	}
}

func (ParticleCodec) Unmarshal(src []byte) Particle {
	var p Particle
	p.ClusterID = int64(binary.LittleEndian.Uint64(src[0:]))
	for i := 0; i < 3; i++ {
		p.Pos[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[8+4*i:]))
		p.Vel[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[20+4*i:]))
	}
	return p
}

// Tagged carries a key plus the record's origin (rank, index), used by
// the test suite to verify stability: the comparator sees only Key, so a
// stable sort must leave equal keys ordered by (Rank, Index).
type Tagged struct {
	Key   float64
	Rank  int32
	Index int32
}

// TaggedCodec serialises Tagged in 16 bytes.
type TaggedCodec struct{}

func (TaggedCodec) Size() int { return 16 }

// ZeroCopy: wire layout (key, rank, index) is the struct layout.
func (TaggedCodec) ZeroCopy() bool { return true }

func (TaggedCodec) Marshal(dst []byte, r Tagged) {
	binary.LittleEndian.PutUint64(dst[0:], math.Float64bits(r.Key))
	binary.LittleEndian.PutUint32(dst[8:], uint32(r.Rank))
	binary.LittleEndian.PutUint32(dst[12:], uint32(r.Index))
}

func (TaggedCodec) Unmarshal(src []byte) Tagged {
	return Tagged{
		Key:   math.Float64frombits(binary.LittleEndian.Uint64(src[0:])),
		Rank:  int32(binary.LittleEndian.Uint32(src[8:])),
		Index: int32(binary.LittleEndian.Uint32(src[12:])),
	}
}
