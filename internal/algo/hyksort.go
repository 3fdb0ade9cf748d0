package algo

import (
	"context"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
)

// hykDriver implements HykSort (Sundar, Malhotra, Biros — ICS'13), the
// state-of-the-art baseline the paper compares against: a generalised
// hypercube quicksort that recursively splits the communicator into k
// groups using histogram-selected splitters and exchanges data in
// log_k(p) rounds (sorter.levels), avoiding a single p-wide all-to-all.
//
// Like the original (when run without secondary sorting keys) it
// partitions by upper_bound on the splitters: all records equal to a
// splitter value land in one group. On heavily duplicated data the
// histogram refinement cannot separate equal keys, splitters collapse
// onto the popular values, and the data concentrates on few ranks — the
// load imbalance and out-of-memory failure the paper's Figs. 6c/8/10
// and Tables 3/4 document.
type hykDriver[T any] struct{}

func (hykDriver[T]) Sort(ctx context.Context, c *comm.Comm, data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) ([]T, error) {
	// Every round takes the synchronous exchange, whose rank-ordered
	// chunks keep the k-way merge deterministic.
	opt.Core.TauO = 0
	s, data, err := begin(ctx, NameHyk, c, data, cd, cmp, opt)
	if err != nil {
		return nil, err
	}
	defer s.run.Close()
	// The published configuration: the HykSort paper found k = 128
	// optimal on their testbed and the SDS-Sort paper uses that value.
	k := 128
	if opt.K > 0 {
		k = max(opt.K, 2)
	}
	// Histogram-based splitter selection (no duplicate awareness).
	pick := func(cur *comm.Comm, local []T, b int) ([]T, error) {
		sp, _, err := histogramSplitters(cur, local, b-1, hykRefine(b), cd, cmp)
		return sp, err
	}
	out, _, err := s.levels(data, k, pick, hykDeliver)
	return out, err
}

// hykRefine is HykSort's histogram refinement for b groups: a seed
// pool that grows with b, and cuts refined until exact, for at most
// three rounds.
func hykRefine(b int) refine { return refine{seed: max(32, 4*b), probe: 8, rounds: 3} }

// hykDeliver scatters bucket j to one rank of group j, spreading
// senders round-robin across the group's members. The targets are
// strictly increasing in j, so the locally sorted data is already in
// destination order and the bucket sizes accumulate directly into the
// per-destination bounds the shared exchange wants.
func hykDeliver(buckets, starts []int, me int) []int {
	b := len(starts) - 1
	db := make([]int, starts[b]+1)
	for j := 0; j < b; j++ {
		db[starts[j]+me%(starts[j+1]-starts[j])+1] = buckets[j+1] - buckets[j]
	}
	for dst := range db[1:] {
		db[dst+1] += db[dst]
	}
	return db
}
