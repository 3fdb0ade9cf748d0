package core

import (
	"sdssort/internal/codec"
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

// localSortFast is the radix dispatch for the initial local sort
// (Fig. 1 line 2): integer-keyed codecs skip the comparison sort for
// the LSD byte pass. Partially ordered inputs keep the natural-run
// merge (the paper's §2.2 adaptivity beats any full re-sort there),
// and stable sorts never dispatch — the radix pass is stable only with
// respect to the full key, which a coarser user comparator may not be.
// Reports whether it sorted data; on false the caller runs the
// comparison sort.
func localSortFast[T any](data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) bool {
	if opt.Stable {
		return false
	}
	if opt.RunThreshold > 0 && psort.Sortedness(data, cmp) >= opt.RunThreshold {
		return false
	}
	return radix.DispatchLocal(data, cd, cmp)
}
