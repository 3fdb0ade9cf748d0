package core

import (
	"fmt"

	"sdssort/internal/psort"
	"sdssort/internal/radix"
)

// The hot-path fast lanes — zero-copy exchange for codecs whose wire
// form is their memory image (partitionSource, recvSlab), LSD-radix
// sorting for codecs that declare an integer sort key (here: the local
// sort, and localOrder's re-sort) — are selected by what the codec
// declares, never by an option. Both are pure accelerations: output
// bytes and record order are identical to the generic marshal and
// comparison paths, which remain the fallback for every codec that does
// not qualify.

// order sorts data — the initial local sort (Fig. 1 line 2) of the whole
// input or of one streamed chunk, or localOrder's τs re-sort — and returns
// the block: data itself, or the run's scratch, whose place the spent data
// then takes. Keyed codecs skip the comparison sort for the radix kernel
// (radix.Dispatch) unless its sweep finds the caller's comparator orders
// differently: detail then says fallback, and the comparison sort runs on
// data, which the kernel never wrote. With runs > 0, partially ordered
// input keeps the natural-run merge (the paper's §2.2 adaptivity beats
// any re-sort there), gated on the kernel's first read, or a comparator
// sweep without a key. detail learns the kernel: "runs", "radix" or
// "comparison"; after radix, how many buckets the insertion pass
// finished, how many it declined and how many overran its budget into the
// LSD loop. The merge and a one-core stable fallback work in the run's
// scratch, grown, which the exchange takes as its receive slab. A heavy
// bucket's spare, held for the kernel call only, is booked after it.
func (r *run[T]) order(data []T, runs float64, detail map[string]any) ([]T, error) {
	stable := r.opt.Stable
	block, v, st := radix.Dispatch(data, &r.scratch, r.cd, r.cmp, stable, runs)
	if b := int64(st.Spare) * r.recSize; b > 0 {
		if err := r.acct.reserve(b); err != nil {
			return nil, fmt.Errorf("core: radix spare of %d records: %w", st.Spare, err)
		}
		r.acct.release(b)
	}
	detail["kernel"] = "comparison"
	switch {
	case v == radix.Sorted:
		detail["kernel"] = "radix"
		tally(detail, "insertion_finished", st.Finished)
		tally(detail, "insertion_declined", st.Declined)
		tally(detail, "insertion_overrun", st.Overrun)
		return block, nil
	case v == radix.Gated:
		r.scratch = psort.NaturalMergeSortBuf(data, r.scratch, r.cmp)
		detail["kernel"] = "runs"
		return data, nil
	case stable && r.opt.cores() == 1:
		if cap(r.scratch) < len(data) {
			r.scratch = make([]T, len(data))
		}
		psort.StableSortBuf(data, r.scratch[:len(data)], r.cmp)
	default:
		psort.ParallelSort(data, r.opt.cores(), stable, r.cmp)
	}
	if v == radix.Refused {
		detail["fallback"] = true
	}
	return data, nil
}

// tally adds n to detail's count k, summed over a streamed sort's chunks.
func tally(detail map[string]any, k string, n int) {
	c, _ := detail[k].(int)
	detail[k] = c + n
}

// takeSlab returns a slab of n records, the local sort's scratch when
// it is large enough, and leaves the run without one.
func (r *run[T]) takeSlab(n int64) []T {
	slab := r.scratch
	r.scratch = nil
	if int64(cap(slab)) < n {
		return make([]T, n)
	}
	return slab[:n]
}

// sendFromInput moves the block back into the spent input slab when a
// rank receives more than that slab holds: the slab — often the caller's
// input, which the caller may still hold — is then the one sent from and
// the merge's buffer, so no third slab stays alive beside the receive
// slab. Kept out of line: inlined, it moved the cosmology build's merge
// loop into a code layout a quarter slower on a 2-vCPU Xeon.
//
//go:noinline
func (r *run[T]) sendFromInput(m int64) {
	if m > int64(cap(r.scratch)) && cap(r.scratch) >= len(r.work) {
		r.work, r.scratch = append(r.scratch[:0], r.work...), r.work
	}
}
