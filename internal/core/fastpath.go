package core

import (
	"sdssort/internal/psort"
	"sdssort/internal/radix"
)

// The hot-path fast lanes — zero-copy exchange for codecs whose wire
// form is their memory image (partitionSource, recvSlab), LSD-radix
// local ordering for codecs with integer sort keys (here, localOrder) —
// are selected by what the codec declares, never by an option. Both are
// pure accelerations: output bytes and record order are identical to
// the generic marshal/comparison paths, which remain the fallback for
// every codec that does not qualify.

// sortChunk is the initial local sort (Fig. 1 line 2), of the whole
// input or of one streamed chunk of it. Integer-keyed codecs skip the
// comparison sort for the LSD byte pass; everything else takes the
// adaptive comparison sort. Partially ordered inputs keep the
// natural-run merge (the paper's §2.2 adaptivity beats any full re-sort
// there), and stable sorts never dispatch — the radix pass is stable
// only with respect to the full key, which a coarser user comparator
// may not be.
func (r *run[T]) sortChunk(data []T) {
	o := r.opt
	radixOK := !o.Stable && (o.RunThreshold <= 0 || psort.Sortedness(data, r.cmp) < o.RunThreshold)
	if !radixOK || !radix.DispatchLocal(data, r.cd, r.cmp) {
		psort.AdaptiveSort(data, o.cores(), o.Stable, o.RunThreshold, r.cmp)
	}
}
