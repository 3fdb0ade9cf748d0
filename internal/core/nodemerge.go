package core

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
)

// mergeNodes is the node-level merging phase, the τm decision and
// SdssNodeMerge/SdssRefineComm (Fig. 1 lines 3-7, §2.3): when the
// average all-to-all message would be small, the sorted data of all
// ranks on a node is first merged onto the node's leader, so the
// exchange sends fewer, larger messages — the win on low-throughput
// networks. It leaves the (possibly merged) working set in work and the
// communicator the rest of the sort runs on in wc. A rank merged onto
// its leader drops out; a world merged down to one leader is done.
func (r *run[T]) mergeNodes() (map[string]any, error) {
	leader, err := r.mergeOntoLeader()
	if err != nil {
		return nil, err
	}
	detail := map[string]any{"leader": leader, "records": len(r.work)}
	if !leader {
		r.dropOut()
		return detail, nil
	}
	if r.merged = r.wc != r.c; r.merged {
		r.localSnap = false
	}
	detail["leaders"] = r.wc.Size()
	if r.wc.Size() == 1 {
		r.exit = "single"
	}
	return detail, nil
}

// mergeOntoLeader reports whether this rank still participates.
func (r *run[T]) mergeOntoLeader() (bool, error) {
	c, p := r.c, r.c.Size()
	if r.opt.TauM <= 0 || p == 1 {
		return true, nil
	}
	// Every rank must take the same branch: decide on the global
	// average message size, not the local one.
	totalBytes, err := c.AllreduceInt64(int64(len(r.work))*r.recSize, func(a, b int64) int64 { return a + b })
	if err != nil {
		return false, fmt.Errorf("core: node-merge sizing: %w", err)
	}
	if avgMsg := totalBytes / int64(p) / int64(p); avgMsg > r.opt.TauM {
		return true, nil
	}

	r.tm.Start(metrics.PhaseOther)
	local, leaders, err := c.SplitByNode()
	if err != nil {
		return false, fmt.Errorf("core: node split: %w", err)
	}
	if local.Size() == 1 {
		// One rank per node: nothing to merge; leaders is the whole
		// communicator reindexed.
		r.wc = leaders
		return true, nil
	}
	if leaders == nil {
		// Non-leader: hand the sorted data to the node leader and
		// drop out. The records now live in the leader's budget, so the
		// input reservation comes back immediately — not at return.
		if err := local.Send(0, tagNodeMerge, codec.EncodeSlice(r.cd, nil, r.work)); err != nil {
			return false, fmt.Errorf("core: node-merge send: %w", err)
		}
		r.acct.release(int64(len(r.work)) * r.recSize)
		r.work = nil
		return false, nil
	}

	// Leader: collect the node's chunks in local-rank order (which is
	// world-rank order within the node, preserving stability) and
	// merge them with the skew-aware shared-memory merge.
	chunks := make([][]T, local.Size())
	chunks[0] = r.work
	extra := int64(0)
	for src := 1; src < local.Size(); src++ {
		buf, err := local.Recv(src, tagNodeMerge)
		if err != nil {
			return false, fmt.Errorf("core: node-merge recv from local rank %d: %w", src, err)
		}
		chunk, err := codec.DecodeSlice(r.cd, buf)
		if err != nil {
			return false, fmt.Errorf("core: node-merge decode: %w", err)
		}
		chunks[src] = chunk
		extra += int64(len(chunk)) * r.recSize
	}
	if err := r.acct.reserve(extra); err != nil {
		return false, fmt.Errorf("core: node-merge buffer: %w", err)
	}
	r.work = psort.SkewAwareParallelMerge(chunks, r.opt.cores(), r.opt.Stable, r.cmp)
	r.wc = leaders
	return true, nil
}
