package core

import (
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

// sortChunk is the initial local sort (Fig. 1 line 2), of the whole
// input or of one streamed chunk of it. Partially ordered inputs keep
// the natural-run merge (the paper's §2.2 adaptivity beats any full
// re-sort there); everything else is resorted. The run gate rides the
// radix kernel's first read for a keyed codec and sweeps the comparator
// for the rest. detail is the enclosing span's end detail: it learns
// which kernel ordered the records — "runs", "radix" or "comparison".
func (r *run[T]) sortChunk(data []T, detail map[string]any) {
	r.order(data, r.opt.RunThreshold, detail)
}

// resort sorts data from scratch: codecs with an integer sort key skip
// the comparison sort for the radix kernel (radix.Dispatch, stable sorts
// as two verified leaves under one merge), unless its agreement sweep
// finds the caller's comparator orders differently — detail then says
// fallback, and a stable sort which leaf. The kernel's scratch stays
// with the run, which hands it to the exchange as its receive slab; a
// one-core stable fallback, keyed or not, merge-sorts in it, grown, and
// so does sortChunk's natural-run merge.
func (r *run[T]) resort(data []T, detail map[string]any) { r.order(data, 0, detail) }

// order is sortChunk with the run gate at runs, resort with it off.
func (r *run[T]) order(data []T, runs float64, detail map[string]any) {
	stable := r.opt.Stable
	scratch, sorted, rejected, gated := radix.Dispatch(data, r.scratch, r.cd, r.cmp, stable, runs)
	r.scratch = scratch
	switch {
	case gated:
		r.scratch = psort.NaturalMergeSortBuf(data, r.scratch, r.cmp)
		detail["kernel"] = "runs"
		return
	case sorted:
	case stable && r.opt.cores() == 1:
		if cap(r.scratch) < len(data) {
			r.scratch = make([]T, len(data))
		}
		psort.StableSortBuf(data, r.scratch[:len(data)], r.cmp)
	default:
		psort.ParallelSort(data, r.opt.cores(), stable, r.cmp)
	}
	detail["kernel"] = "radix"
	if !sorted || rejected > 0 {
		detail["kernel"] = "comparison"
	}
	if rejected > 0 {
		detail["fallback"] = true
		if stable {
			detail["leaf"] = rejected
		}
	}
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
