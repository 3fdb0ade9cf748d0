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
// re-sort there); everything else is resorted. detail is the enclosing
// span's end detail: it learns which kernel ordered the records —
// "runs", "radix" or "comparison".
func (r *run[T]) sortChunk(data []T, detail map[string]any) {
	if thr := r.opt.RunThreshold; thr > 0 && psort.Sortedness(data, r.cmp) >= thr {
		psort.NaturalMergeSort(data, r.cmp)
		detail["kernel"] = "runs"
		return
	}
	r.resort(data, detail)
}

// resort sorts data from scratch: codecs with an integer sort key skip
// the comparison sort for the LSD radix kernel (radix.DispatchLocal),
// unless its agreement sweep finds the caller's comparator orders
// differently — detail then says fallback, and a stable sort says which
// leaf was rejected. Stable sorts dispatch too: as two leaves, each
// verified before anything it would need is overwritten, under one
// comparator merge. The kernel's scratch stays with the run, which
// hands it to the exchange as its receive slab; a single-core stable
// fallback merge-sorts in that same scratch.
func (r *run[T]) resort(data []T, detail map[string]any) {
	stable := r.opt.Stable
	scratch, sorted, rejected := radix.DispatchLocal(data, r.scratch, r.cd, r.cmp, stable)
	r.scratch = scratch
	switch {
	case sorted:
	case stable && r.opt.cores() == 1:
		psort.StableSortBuf(data, r.scratch, r.cmp)
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
