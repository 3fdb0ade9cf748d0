package checkpoint

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/extsort"
	"sdssort/internal/recordio"
)

// CheckpointStats are process-wide cumulative checkpoint counters,
// exported live by the telemetry plane. They are package-level rather
// than per-Store because Stores are created per job while the counters
// describe the process ("how much checkpoint I/O has this node done").
type CheckpointStats struct {
	// Saves counts committed snapshots (SaveBytes renames plus
	// hard-linked aliases); SavedBytes is the payload bytes written
	// (aliases contribute nothing — that is the point of aliasing).
	Saves      atomic.Int64
	SavedBytes atomic.Int64
	// SaveErrors counts snapshot commits that failed.
	SaveErrors atomic.Int64
	// Loads counts verified snapshot reads; LoadErrors the failed or
	// corrupt ones.
	Loads      atomic.Int64
	LoadErrors atomic.Int64
}

var stats CheckpointStats

// Stats exposes the package's live checkpoint counters.
func Stats() *CheckpointStats { return &stats }

// dataTable is the polynomial for the record-data checksum: CRC-32C,
// which is hardware-accelerated on the common platforms. Saving sits
// on the sort's critical path, so the hash must run at memory
// bandwidth; the manifest's own self-checksum stays FNV-64a (it
// covers a few dozen bytes).
var dataTable = crc32.MakeTable(crc32.Castagnoli)

// Store is one job's spill directory. All ranks of an in-process job
// share one Store; distributed ranks point their Stores at a shared
// directory. The Store itself is stateless — every operation goes to
// the filesystem — so a respawned process sees its predecessor's
// checkpoints.
type Store struct {
	dir   string
	ranks int
}

// NewStore opens (creating if needed) the spill directory for a job of
// the given rank count.
func NewStore(dir string, ranks int) (*Store, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("checkpoint: rank count %d must be positive", ranks)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir, ranks: ranks}, nil
}

// Dir returns the spill directory.
func (s *Store) Dir() string { return s.dir }

// Ranks returns the job's rank count.
func (s *Store) Ranks() int { return s.ranks }

func (s *Store) epochDir(epoch int) string {
	return filepath.Join(s.dir, fmt.Sprintf("e%06d", epoch))
}

// ManifestPath returns where the manifest for (epoch, phase, rank)
// lives. The path exists only once that checkpoint has committed —
// which makes it usable as a phase-boundary trigger for fault
// injection (faultnet's kill-after-file fault).
func (s *Store) ManifestPath(epoch int, ph Phase, rank int) string {
	return filepath.Join(s.epochDir(epoch), fmt.Sprintf("%s-r%04d.ckpt", ph, rank))
}

// DataPath returns where the record data for (epoch, phase, rank) lives.
func (s *Store) DataPath(epoch int, ph Phase, rank int) string {
	return filepath.Join(s.epochDir(epoch), fmt.Sprintf("%s-r%04d.dat", ph, rank))
}

// Save commits one rank's snapshot: the records are bulk-marshalled
// (recordio's wire layout — a bare concatenation of fixed-width
// records) and handed to SaveBytes. Callers that want the disk commit
// off their critical path encode with codec.EncodeSlice themselves and
// call SaveBytes from a background writer — that is what core's async
// checkpointing does.
func Save[T any](s *Store, m Manifest, cd codec.Codec[T], recs []T) error {
	payload := codec.EncodeSlice(cd, make([]byte, 0, len(recs)*cd.Size()), recs)
	return SaveBytes(s, m, payload, int64(len(recs)), cd.Size())
}

// SaveBytes commits one rank's pre-encoded snapshot: payload is
// written to the data file, then the manifest (completed with count,
// record size and data checksum) is written. Both files land via
// write-to-temp-and-rename, manifest last, so a crash mid-save leaves
// no valid checkpoint rather than a torn one.
func SaveBytes(s *Store, m Manifest, payload []byte, records int64, recSize int) error {
	if err := saveBytes(s, m, payload, records, recSize); err != nil {
		stats.SaveErrors.Add(1)
		return err
	}
	stats.Saves.Add(1)
	stats.SavedBytes.Add(int64(len(payload)))
	return nil
}

func saveBytes(s *Store, m Manifest, payload []byte, records int64, recSize int) error {
	dir := s.epochDir(m.Epoch)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := commit(s.DataPath(m.Epoch, m.Phase, m.Rank), payload); err != nil {
		return err
	}
	m.Records = records
	m.RecordSize = recSize
	m.Checksum = uint64(crc32.Checksum(payload, dataTable))
	return s.writeManifest(m)
}

// writeManifest commits the manifest; its rename is the snapshot's
// commit point. It stamps the store's rank count as the manifest's
// world, so every committed snapshot records which world size it
// belongs to.
func (s *Store) writeManifest(m Manifest) error {
	m.World = s.ranks
	return commit(s.ManifestPath(m.Epoch, m.Phase, m.Rank), m.Encode())
}

// commit writes b to path through the spill tier's file writer: the
// bytes land in a temp file beside path and appear there only on the
// rename.
func commit(path string, b []byte) error {
	fw, err := extsort.CreateFile(path, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer fw.Abort()
	if _, err := fw.Write(b); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fw.Commit(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// SaveAlias commits a snapshot whose record data is byte-identical to
// an already-committed phase of the same epoch and rank: the data
// file is hard-linked instead of rewritten and count, record size and
// checksum carry over from the source's manifest. The source must
// have committed first — core's background writer runs commits in
// enqueue order to guarantee it. The driver uses this for the
// partition snapshot when node merging did not trigger (the working
// set is exactly the local-sort snapshot; only the bounds differ),
// which removes a third of checkpointing's write volume.
func SaveAlias(s *Store, m Manifest, src Phase) error {
	sm, err := s.readManifest(m.Epoch, src, m.Rank)
	if err != nil {
		stats.SaveErrors.Add(1)
		return fmt.Errorf("checkpoint: alias source: %w", err)
	}
	srcData := s.DataPath(m.Epoch, src, m.Rank)
	dst := s.DataPath(m.Epoch, m.Phase, m.Rank)
	os.Remove(dst) // a retried epoch may have left one behind
	if err := os.Link(srcData, dst); err != nil {
		// No hard links on this filesystem: fall back to a copy, still
		// temp-and-rename.
		payload, rerr := os.ReadFile(srcData)
		if rerr != nil {
			stats.SaveErrors.Add(1)
			return fmt.Errorf("checkpoint: alias data: %w", rerr)
		}
		mm := m
		mm.Records, mm.RecordSize = sm.Records, sm.RecordSize
		return SaveBytes(s, mm, payload, sm.Records, sm.RecordSize)
	}
	m.Records, m.RecordSize, m.Checksum = sm.Records, sm.RecordSize, sm.Checksum
	if err := s.writeManifest(m); err != nil {
		stats.SaveErrors.Add(1)
		return err
	}
	// An alias commit is a save that wrote no payload bytes.
	stats.Saves.Add(1)
	return nil
}

// Load reads and verifies one rank's snapshot, returning the manifest
// and the decoded records. It fails if the manifest does not identify
// the requested (epoch, phase, rank) or the data file does not match
// the manifest's count and checksum.
func Load[T any](s *Store, epoch int, ph Phase, rank int, cd codec.Codec[T]) (*Manifest, []T, error) {
	m, recs, err := load(s, epoch, ph, rank, cd)
	if err != nil {
		stats.LoadErrors.Add(1)
		return nil, nil, err
	}
	stats.Loads.Add(1)
	return m, recs, nil
}

func load[T any](s *Store, epoch int, ph Phase, rank int, cd codec.Codec[T]) (*Manifest, []T, error) {
	m, err := s.readManifest(epoch, ph, rank)
	if err != nil {
		return nil, nil, err
	}
	if m.RecordSize != cd.Size() && m.Records > 0 {
		return nil, nil, fmt.Errorf("%w: %s has %d-byte records, codec wants %d",
			ErrCorrupt, s.DataPath(epoch, ph, rank), m.RecordSize, cd.Size())
	}
	f, err := os.Open(s.DataPath(epoch, ph, rank))
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	// The records are allocated only once the file is known to hold
	// them: a manifest alone never sizes an allocation.
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if !m.holds(st.Size()) {
		return nil, nil, fmt.Errorf("%w: %s is %d bytes, manifest says %d records",
			ErrCorrupt, s.DataPath(epoch, ph, rank), st.Size(), m.Records)
	}
	h := crc32.New(dataTable)
	recs := make([]T, m.Records)
	if n, err := recordio.ReadBlock(io.TeeReader(f, h), cd, recs, nil); err != nil {
		return nil, nil, fmt.Errorf("%w: %s holds %d records, manifest says %d: %v",
			ErrCorrupt, s.DataPath(epoch, ph, rank), n, m.Records, err)
	}
	if uint64(h.Sum32()) != m.Checksum {
		return nil, nil, fmt.Errorf("%w: data checksum mismatch for %s",
			ErrCorrupt, s.DataPath(epoch, ph, rank))
	}
	return m, recs, nil
}

// readManifest loads and validates the manifest file, including its
// identity: a manifest claiming a different (epoch, phase, rank) than
// its path is corrupt.
func (s *Store) readManifest(epoch int, ph Phase, rank int) (*Manifest, error) {
	buf, err := os.ReadFile(s.ManifestPath(epoch, ph, rank))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m, err := DecodeManifest(buf)
	if err != nil {
		return nil, err
	}
	if m.Epoch != epoch || m.Phase != ph || m.Rank != rank {
		return nil, fmt.Errorf("%w: manifest at %s identifies (epoch %d, %s, rank %d)",
			ErrCorrupt, s.ManifestPath(epoch, ph, rank), m.Epoch, m.Phase, m.Rank)
	}
	if m.World != 0 && m.World != s.ranks {
		// A snapshot written by a different world size is not usable by
		// this store: resuming a p-rank cut on p−1 ranks would silently
		// drop records, and a full-world relaunch must not adopt a
		// degraded world's redistributed snapshots.
		return nil, fmt.Errorf("%w: manifest at %s was written for a %d-rank world, store has %d",
			ErrCorrupt, s.ManifestPath(epoch, ph, rank), m.World, s.ranks)
	}
	return m, nil
}

// Valid reports whether the checkpoint for (epoch, phase, rank) is
// complete: manifest present and well-formed, data file present with
// the manifest's exact byte length and checksum. It needs no codec —
// validation is over raw bytes.
func (s *Store) Valid(epoch int, ph Phase, rank int) bool {
	m, err := s.readManifest(epoch, ph, rank)
	if err != nil {
		return false
	}
	f, err := os.Open(s.DataPath(epoch, ph, rank))
	if err != nil {
		return false
	}
	defer f.Close()
	h := crc32.New(dataTable)
	n, err := io.Copy(h, f)
	if err != nil || !m.holds(n) {
		return false
	}
	return uint64(h.Sum32()) == m.Checksum
}

// LatestConsistent scans the spill directory for the most recent
// globally consistent cut: the highest epoch, and within it the latest
// phase, for which every rank 0..ranks-1 holds a valid checkpoint. A
// cut missing even one rank — the rank died before committing, or its
// files are torn — is skipped entirely; resuming from it would
// silently drop that rank's records.
func (s *Store) LatestConsistent() (Cut, bool) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return Cut{}, false
	}
	var epochs []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "e") {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "e")); err == nil {
			epochs = append(epochs, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	for _, epoch := range epochs {
		for _, ph := range []Phase{PhaseFinal, PhasePartition, PhaseLocalSort} {
			ok := true
			for r := 0; r < s.ranks; r++ {
				if !s.Valid(epoch, ph, r) {
					ok = false
					break
				}
			}
			if ok {
				return Cut{Epoch: epoch, Phase: ph}, true
			}
		}
	}
	return Cut{}, false
}

// Remove deletes the entire spill directory.
func (s *Store) Remove() error { return os.RemoveAll(s.dir) }

// AgreeCut makes every rank of c adopt the same resume cut: rank 0
// scans its view of the store and broadcasts the verdict. Distributed
// ranks must not each call LatestConsistent independently — a
// checkpoint landing between two ranks' scans would split the job
// across different resume points, which is exactly the inconsistency
// checkpointing exists to prevent. ok is false when no consistent cut
// exists (cold start).
func AgreeCut(c *comm.Comm, s *Store) (Cut, bool, error) {
	var payload []byte
	if c.Rank() == 0 {
		cut, ok := s.LatestConsistent()
		if !ok {
			cut = Cut{Phase: PhaseNone}
		}
		payload = comm.EncodeInt64s([]int64{int64(cut.Epoch), int64(cut.Phase)})
	}
	buf, err := c.Bcast(0, payload)
	if err != nil {
		return Cut{}, false, fmt.Errorf("checkpoint: cut agreement: %w", err)
	}
	vals, err := comm.DecodeInt64s(buf)
	if err != nil || len(vals) != 2 {
		return Cut{}, false, fmt.Errorf("checkpoint: bad cut payload: %w", err)
	}
	cut := Cut{Epoch: int(vals[0]), Phase: Phase(vals[1])}
	return cut, cut.Phase != PhaseNone, nil
}
