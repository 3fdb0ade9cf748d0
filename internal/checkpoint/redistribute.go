package checkpoint

import (
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"sdssort/internal/codec"
	"sdssort/internal/psort"
)

// This file implements the checkpoint half of degraded-mode resume:
// when a world of p ranks loses some of them mid-job, the survivors do
// not relaunch the world — they adopt the dead ranks' checkpointed
// records and continue as a (p−k)-rank world. Redistribute performs the
// adoption: it reads the lost ranks' snapshots at the last consistent
// cut and commits a fresh, fully consistent cut under a new epoch with
// the survivors' compacted rank numbering and the shrunken world size
// stamped in every manifest.
//
// Crash safety falls out of the store's commit discipline plus the
// world-size stamp: the new cut only becomes consistent once every
// survivor's snapshot has committed, and a redistribution interrupted
// by a second failure leaves (a) an incomplete new-world cut that a
// (p−k)-rank store ignores and (b) the old p-rank cut still fully
// valid for a p-rank store — so falling back to the relaunch path
// resumes exactly where it would have without the shrink attempt.

// Survivors returns the ranks of a size-rank world that are not in
// lost, in rank order. The index of a rank in the result is its rank in
// the shrunken world — the compact renumbering every layer of the
// degraded-mode path agrees on.
func Survivors(size int, lost []int) ([]int, error) {
	dead := make(map[int]bool, len(lost))
	for _, r := range lost {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("checkpoint: lost rank %d outside world of %d", r, size)
		}
		dead[r] = true
	}
	if len(dead) == 0 {
		return nil, fmt.Errorf("checkpoint: shrink with no lost ranks")
	}
	if len(dead) == size {
		return nil, fmt.Errorf("checkpoint: all %d ranks lost", size)
	}
	out := make([]int, 0, size-len(dead))
	for r := 0; r < size; r++ {
		if !dead[r] {
			out = append(out, r)
		}
	}
	return out, nil
}

// Redistribute rebuilds old's consistent cut for the world that remains
// after losing the given ranks. It returns the survivors' store (same
// spill directory, rank count len(survivors)) and the new cut, both
// committed under newEpoch, which must be higher than any epoch the old
// world used so the new cut is the one LatestConsistent finds.
//
// How the orphaned records move depends on the cut's phase:
//
//   - PhaseFinal: the exchange already ran, so each rank's snapshot is a
//     contiguous block of the sorted output. Each dead rank's block is
//     spliced, order preserved, onto the nearest surviving neighbour,
//     and the survivors' blocks are renumbered. No records are compared.
//   - PhaseLocalSort / PhasePartition: partition bounds and the τm merge
//     layout are meaningless for a different p, so the job restarts from
//     the sorted local runs. Each dead rank's run is cut into
//     len(survivors) contiguous chunks — splitters re-scaled to the new
//     world — and survivor i k-way-merges chunk i of every dead run into
//     its own run, keeping every snapshot sorted, which resume requires.
//     Pivot selection, partitioning and the exchange then re-run on the
//     shrunken world, recomputing every send count for the new p.
//
// The localsort snapshots backing a PhasePartition cut may live at an
// earlier epoch than the cut itself (a partition-resumed epoch re-saves
// only the partition boundary); Redistribute scans down from the cut's
// epoch for the newest epoch where every old rank holds a valid
// localsort snapshot — the record multiset is identical at any of them.
func Redistribute[T any](old *Store, cut Cut, lost []int, newEpoch int, cd codec.Codec[T], cmp func(a, b T) int) (*Store, Cut, error) {
	survivors, err := Survivors(old.ranks, lost)
	if err != nil {
		return nil, Cut{}, err
	}
	ns, err := NewStore(old.dir, len(survivors))
	if err != nil {
		return nil, Cut{}, err
	}
	switch cut.Phase {
	case PhaseFinal:
		if err := adoptFinalBlocks(old, ns, cut.Epoch, newEpoch, survivors); err != nil {
			return nil, Cut{}, err
		}
		return ns, Cut{Epoch: newEpoch, Phase: PhaseFinal}, nil
	case PhaseLocalSort, PhasePartition:
		epoch, ok := localSortEpoch(old, cut.Epoch)
		if !ok {
			return nil, Cut{}, fmt.Errorf("checkpoint: no consistent localsort cut at or below epoch %d", cut.Epoch)
		}
		if err := mergeOrphanRuns(old, ns, epoch, newEpoch, survivors, lost, cd, cmp); err != nil {
			return nil, Cut{}, err
		}
		return ns, Cut{Epoch: newEpoch, Phase: PhaseLocalSort}, nil
	default:
		return nil, Cut{}, fmt.Errorf("checkpoint: cannot redistribute from phase %s", cut.Phase)
	}
}

// RedistributeLatest is the whole shrink hook in one call: open dir's
// store for the failed world of oldSize ranks, find its latest
// consistent cut and rebuild that cut for the survivors under newEpoch.
// A store with no consistent cut returns the zero Cut (PhaseNone) and no
// error — there is nothing to shrink from, only to relaunch.
func RedistributeLatest[T any](dir string, oldSize int, lost []int, newEpoch int, cd codec.Codec[T], cmp func(a, b T) int) (Cut, error) {
	old, err := NewStore(dir, oldSize)
	if err != nil {
		return Cut{}, err
	}
	cut, ok := old.LatestConsistent()
	if !ok {
		return Cut{}, nil
	}
	_, ncut, err := Redistribute(old, cut, lost, newEpoch, cd, cmp)
	return ncut, err
}

// localSortEpoch finds the newest epoch <= upTo where every rank of the
// store holds a valid localsort snapshot.
func localSortEpoch(s *Store, upTo int) (int, bool) {
	for epoch := upTo; epoch >= 0; epoch-- {
		ok := true
		for r := 0; r < s.ranks; r++ {
			if !s.Valid(epoch, PhaseLocalSort, r) {
				ok = false
				break
			}
		}
		if ok {
			return epoch, true
		}
	}
	return 0, false
}

// payload reads one snapshot's raw data bytes, verified against the
// manifest — the zero-decode path for moving records that will not be
// compared.
func (s *Store) payload(epoch int, ph Phase, rank int) (*Manifest, []byte, error) {
	m, err := s.readManifest(epoch, ph, rank)
	if err != nil {
		return nil, nil, err
	}
	buf, err := os.ReadFile(s.DataPath(epoch, ph, rank))
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if !m.holds(int64(len(buf))) {
		return nil, nil, fmt.Errorf("%w: data for %s holds %d bytes, manifest says %d records of %d",
			ErrCorrupt, s.ManifestPath(epoch, ph, rank), len(buf), m.Records, m.RecordSize)
	}
	if uint64(crc32.Checksum(buf, dataTable)) != m.Checksum {
		return nil, nil, fmt.Errorf("%w: data checksum mismatch for %s", ErrCorrupt, s.DataPath(epoch, ph, rank))
	}
	return m, buf, nil
}

// adoptFinalBlocks renumbers the survivors' final output blocks and
// splices each dead rank's block onto the survivor that follows it in
// old rank order (trailing dead blocks go to the last survivor), so the
// new world's blocks concatenated in new rank order spell exactly the
// same output as the old world's did.
func adoptFinalBlocks(old, ns *Store, epoch, newEpoch int, survivors []int) error {
	for i, s := range survivors {
		hi := s
		if i == len(survivors)-1 {
			hi = old.ranks - 1
		}
		lo := 0
		if i > 0 {
			lo = survivors[i-1] + 1
		}
		var payload []byte
		var records int64
		recSize := 0
		for r := lo; r <= hi; r++ {
			m, buf, err := old.payload(epoch, PhaseFinal, r)
			if err != nil {
				return err
			}
			if m.Records > 0 {
				if recSize != 0 && recSize != m.RecordSize {
					return fmt.Errorf("checkpoint: redistribute: rank %d has %d-byte records, expected %d",
						r, m.RecordSize, recSize)
				}
				recSize = m.RecordSize
			}
			payload = append(payload, buf...)
			records += m.Records
		}
		m := Manifest{Epoch: newEpoch, Phase: PhaseFinal, Rank: i, Leader: true}
		if err := SaveBytes(ns, m, payload, records, recSize); err != nil {
			return fmt.Errorf("checkpoint: redistribute final block %d: %w", i, err)
		}
	}
	return nil
}

// mergeOrphanRuns gives survivor i its own sorted run merged with the
// i-th of len(survivors) contiguous chunks of every dead rank's run.
func mergeOrphanRuns[T any](old, ns *Store, epoch, newEpoch int, survivors, lost []int, cd codec.Codec[T], cmp func(a, b T) int) error {
	p := len(survivors)
	dead := slices.Clone(lost)
	slices.Sort(dead)
	dead = slices.Compact(dead)
	deadRuns := make([][]T, 0, len(dead))
	for _, r := range dead {
		_, recs, err := Load(old, epoch, PhaseLocalSort, r, cd)
		if err != nil {
			return fmt.Errorf("checkpoint: redistribute orphan rank %d: %w", r, err)
		}
		deadRuns = append(deadRuns, recs)
	}
	for i, s := range survivors {
		_, own, err := Load(old, epoch, PhaseLocalSort, s, cd)
		if err != nil {
			return fmt.Errorf("checkpoint: redistribute survivor rank %d: %w", s, err)
		}
		chunks := make([][]T, 0, 1+len(deadRuns))
		chunks = append(chunks, own)
		for _, run := range deadRuns {
			n := len(run)
			if lo, hi := i*n/p, (i+1)*n/p; lo < hi {
				chunks = append(chunks, run[lo:hi])
			}
		}
		merged := own
		if len(chunks) > 1 {
			merged = psort.KWayMerge(chunks, cmp)
		}
		m := Manifest{Epoch: newEpoch, Phase: PhaseLocalSort, Rank: i, Leader: true}
		if err := Save(ns, m, cd, merged); err != nil {
			return fmt.Errorf("checkpoint: redistribute run %d: %w", i, err)
		}
	}
	return nil
}
