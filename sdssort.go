// Package sdssort is a Go implementation of SDS-Sort — the scalable
// dynamic skew-aware parallel sorting algorithm of Dong, Byna and Wu
// (HPDC 2016) — together with the distributed-memory runtime it needs
// and the baselines it was evaluated against.
//
// The model mirrors MPI: p ranks each hold a slice of the records; a
// collective Sort call leaves rank r holding the r-th block of the
// globally sorted data. Ranks can be goroutines in one process (see
// RunLocal) or OS processes connected over TCP (see NewTCPComm).
//
// Quick start, in-process:
//
//	topo := sdssort.Topology{Nodes: 2, CoresPerNode: 4}
//	sorter := sdssort.NewSorter[float64](sdssort.Float64Codec(), cmp)
//	sorted, err := sorter.SortLocal(topo, parts) // parts[r] = rank r's records
//
// The sorter is generic over the record type: supply a fixed-width Codec
// for the wire format and a three-way comparator over the sort key.
// Nothing below the comparator inspects records, so any user-chosen key
// works — including heavily duplicated ones — without secondary sorting
// keys; that is the point of the algorithm.
package sdssort

import (
	"io"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/extsort"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
)

// Codec converts records to and from a fixed-width wire format for the
// all-to-all exchange. Implementations must be stateless.
type Codec[T any] interface {
	// Size is the exact number of bytes Marshal writes per record.
	Size() int
	// Marshal writes rec into dst[:Size()].
	Marshal(dst []byte, rec T)
	// Unmarshal reads one record from src[:Size()].
	Unmarshal(src []byte) T
}

// Comm is a communicator: a group of ranks exchanging messages within an
// isolated context, the unit a collective sort runs over.
type Comm = comm.Comm

// Topology describes the simulated machine of an in-process run: Nodes
// × CoresPerNode ranks, with node boundaries respected by the τm
// node-level merging.
type Topology = cluster.Topology

// Float64Codec returns the codec for plain float64 keys.
func Float64Codec() Codec[float64] { return codec.Float64{} }

// Uint64Codec returns the codec for plain uint64 keys.
func Uint64Codec() Codec[uint64] { return codec.Uint64{} }

// Int64Codec returns the codec for plain int64 keys.
func Int64Codec() Codec[int64] { return codec.Int64{} }

// PTFRecord is a Palomar Transient Factory detection: real-bogus score
// key plus object-id payload (one of the paper's two real datasets).
type PTFRecord = codec.PTFRecord

// PTFCodec returns the 16-byte codec for PTFRecord.
func PTFCodec() Codec[PTFRecord] { return codec.PTFCodec{} }

// ComparePTF orders PTF records by real-bogus score only.
func ComparePTF(a, b PTFRecord) int { return codec.ComparePTF(a, b) }

// Particle is a cosmology-simulation particle: cluster-id key plus
// position/velocity payload (the paper's second real dataset).
type Particle = codec.Particle

// ParticleCodec returns the 32-byte codec for Particle.
func ParticleCodec() Codec[Particle] { return codec.ParticleCodec{} }

// CompareParticles orders particles by cluster id only.
func CompareParticles(a, b Particle) int { return codec.CompareParticles(a, b) }

// Compare is a convenience three-way comparator for ordered primitive
// keys.
func Compare[T interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// PhaseTimes is the per-phase wall-time breakdown of one rank's sort, in
// the categories of the paper's Figures 9 and 10.
type PhaseTimes struct {
	LocalSort      time.Duration
	PivotSelection time.Duration
	Exchange       time.Duration
	LocalOrdering  time.Duration
	Other          time.Duration
}

// Total returns the sum of all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.LocalSort + p.PivotSelection + p.Exchange + p.LocalOrdering + p.Other
}

// Stats reports what one rank's Sort call did.
type Stats struct {
	// Records is the number of records this rank holds after sorting
	// (the m_i of the paper's RDFA load-balance metric).
	Records int
	// Phases is the wall-time breakdown.
	Phases PhaseTimes
}

// Option configures a Sorter.
type Option func(*config)

type config struct {
	opt core.Options
	mem int64
}

// Stable requests a stable sort: records with equal keys keep their
// global input order (rank order, then local position) — without any
// secondary sorting key.
func Stable() Option { return func(c *config) { c.opt.Stable = true } }

// Cores sets how many goroutines each rank may use for local sorting
// and merging (the paper's cores-per-node c).
func Cores(n int) Option { return func(c *config) { c.opt.Cores = n } }

// TauM sets the node-level merging threshold in bytes of average
// exchange message size; 0 disables node merging (§2.3 of the paper).
func TauM(bytes int64) Option { return func(c *config) { c.opt.TauM = bytes } }

// TauO sets the overlap threshold: with at most this many ranks (and a
// non-stable sort) the exchange overlaps with local ordering (§2.6).
func TauO(p int) Option { return func(c *config) { c.opt.TauO = p } }

// TauS sets the local-ordering threshold: below it received chunks are
// k-way merged, above it they are re-sorted (§2.7).
func TauS(p int) Option { return func(c *config) { c.opt.TauS = p } }

// RunThreshold sets the average run length above which local data is
// treated as partially ordered and merged instead of sorted; 0 disables
// detection.
func RunThreshold(avgRunLen float64) Option {
	return func(c *config) { c.opt.RunThreshold = avgRunLen }
}

// MemoryBudget emulates a per-rank memory limit in bytes: sorts whose
// receive volume exceeds it fail with an out-of-memory error, as they
// would on a real machine. 0 means unlimited.
func MemoryBudget(bytes int64) Option { return func(c *config) { c.mem = bytes } }

// StageBytes bounds the staging window of the all-to-all data exchange:
// each peer's partition streams out in chunks of at most this many
// bytes and arriving chunks are decoded incrementally, so the exchange
// adds one chunk of staging memory (two for codecs that must encode)
// beyond input and receive buffers. 0 (the default) means no chunking:
// each peer's payload is one chunk, and the window is the rank's largest
// per-peer payload. Either way the window is reserved against
// MemoryBudget, so the budget bounds the true peak: input + receive
// buffer + staging window.
func StageBytes(bytes int64) Option { return func(c *config) { c.opt.StageBytes = bytes } }

// TraceJSON streams structured events (adaptive decisions, exchange
// volumes, partition summaries) as JSON lines to w. The writer must
// tolerate concurrent ranks; the encoder serialises writes.
func TraceJSON(w io.Writer) Option {
	return func(c *config) { c.opt.Trace = trace.NewJSONL(w) }
}

// Sorter sorts distributed slices of T with SDS-Sort.
type Sorter[T any] struct {
	cd   Codec[T]
	cmp  func(a, b T) int
	conf config
}

// NewSorter builds a sorter from a codec, a comparator over the sort
// key, and options.
func NewSorter[T any](cd Codec[T], cmp func(a, b T) int, opts ...Option) *Sorter[T] {
	conf := config{opt: core.DefaultOptions()}
	for _, o := range opts {
		o(&conf)
	}
	return &Sorter[T]{cd: cd, cmp: cmp, conf: conf}
}

func (s *Sorter[T]) options() core.Options {
	opt := s.conf.opt
	if s.conf.mem > 0 {
		opt.Mem = memlimit.New(s.conf.mem)
	}
	return opt
}

// Sort runs the collective sort on communicator c: every rank passes its
// local records and receives its block of the globally sorted output.
// Sort overwrites the records, and the returned block may occupy their
// storage. All ranks of c must call Sort.
func (s *Sorter[T]) Sort(c *Comm, data []T) ([]T, error) {
	return core.Sort(c, data, internalCodec(s.cd), s.cmp, s.options())
}

// SortStats is Sort plus a per-rank phase breakdown and final load.
func (s *Sorter[T]) SortStats(c *Comm, data []T) ([]T, Stats, error) {
	opt := s.options()
	tm := metrics.NewPhaseTimer()
	opt.Timer = tm
	out, err := core.Sort(c, data, internalCodec(s.cd), s.cmp, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, Stats{
		Records: len(out),
		Phases: PhaseTimes{
			LocalSort:      tm.Get(metrics.PhaseLocalSort),
			PivotSelection: tm.Get(metrics.PhasePivotSelection),
			Exchange:       tm.Get(metrics.PhaseExchange),
			LocalOrdering:  tm.Get(metrics.PhaseLocalOrdering),
			Other:          tm.Get(metrics.PhaseOther),
		},
	}, nil
}

// Verify collectively checks that data is globally sorted across the
// communicator (each rank's block sorted, blocks ordered by rank). It is
// cheap — one boundary message per rank plus a reduction — and intended
// to run after production sorts.
func (s *Sorter[T]) Verify(c *Comm, data []T) error {
	return core.Verify(c, data, internalCodec(s.cd), s.cmp)
}

// SortLocal sorts parts on an in-process cluster shaped topo: parts[r]
// is rank r's input and the result's element r is rank r's output block.
// Concatenating the result in order yields the sorted dataset.
func (s *Sorter[T]) SortLocal(topo Topology, parts [][]T) ([][]T, error) {
	if len(parts) != topo.Size() {
		parts = padParts(parts, topo.Size())
	}
	// One budget per rank, built inside each rank for isolation.
	return cluster.Gather(topo, cluster.Options{}, func(c *Comm) ([]T, error) {
		local := append([]T(nil), parts[c.Rank()]...)
		return s.Sort(c, local)
	})
}

// ClusterStats aggregates a SortLocalStats run.
type ClusterStats struct {
	// PerRank holds each rank's stats, indexed by rank.
	PerRank []Stats
	// RDFA is the paper's load-balance metric: the largest final
	// partition over the average (1.0 = perfectly balanced).
	RDFA float64
	// Elapsed is the wall time of the whole collective run.
	Elapsed time.Duration
}

// SortLocalStats is SortLocal plus per-rank statistics and the RDFA
// load-balance metric of the run.
func (s *Sorter[T]) SortLocalStats(topo Topology, parts [][]T) ([][]T, ClusterStats, error) {
	if len(parts) != topo.Size() {
		parts = padParts(parts, topo.Size())
	}
	stats := ClusterStats{PerRank: make([]Stats, topo.Size())}
	start := time.Now()
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *Comm) ([]T, error) {
		local := append([]T(nil), parts[c.Rank()]...)
		sorted, st, err := s.SortStats(c, local)
		if err != nil {
			return nil, err
		}
		stats.PerRank[c.Rank()] = st
		return sorted, nil
	})
	if err != nil {
		return nil, ClusterStats{}, err
	}
	stats.Elapsed = time.Since(start)
	loads := make([]int, len(stats.PerRank))
	for r, st := range stats.PerRank {
		loads[r] = st.Records
	}
	stats.RDFA = metrics.RDFA(loads)
	return out, stats, nil
}

func padParts[T any](parts [][]T, size int) [][]T {
	out := make([][]T, size)
	copy(out, parts)
	return out
}

// RunLocal launches an in-process cluster shaped topo and runs fn on
// every rank, for callers that want full control of the collective.
func RunLocal(topo Topology, fn func(c *Comm) error) error {
	return cluster.Run(topo, fn)
}

// ExternalSortFile sorts a fixed-width record file that may be larger
// than memory: chunks of chunkRecords are sorted in memory and spilled
// as runs, then streamed through a k-way merge into out, which commits
// atomically. With stable set, equal keys keep file order. Peak memory
// is bounded by chunkRecords × record size (×2 for the sort scratch)
// regardless of file size. This is the library's out-of-core sort on a
// world of one rank — the distributed spill tier with nobody to
// exchange with; SDS-Sort itself (and the paper) is in-memory.
func ExternalSortFile[T any](in, out string, cd Codec[T], cmp func(a, b T) int, chunkRecords int, stable bool) error {
	return cluster.Run(Topology{Nodes: 1, CoresPerNode: 1}, func(c *Comm) error {
		opt := core.DefaultOptions()
		opt.Stable = stable
		opt.Spill = &core.SpillOptions{ChunkRecords: max(chunkRecords, 0)}
		blk, err := core.SortFileShard(c, in, internalCodec(cd), cmp, opt)
		if err != nil {
			return err
		}
		defer blk.Remove()
		dst, err := extsort.CreateFile(out, 0)
		if err != nil {
			return err
		}
		defer dst.Abort()
		if err := blk.Stream(dst); err != nil {
			return err
		}
		return dst.Commit()
	})
}

// internalCodec converts the public Codec to the internal one. The
// method sets are identical, so Go's structural interfaces make this a
// plain interface conversion — crucially NOT a wrapper struct, which
// would hide the optional capability interfaces (zero-copy views,
// integer radix keys) the hot paths type-assert for.
func internalCodec[T any](c Codec[T]) codec.Codec[T] { return c }
