package core

import (
	"errors"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
)

var f64 = codec.Float64{}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestVerifyAcceptsSortedDistribution(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		// Rank r holds [10r, 10r+10): globally sorted.
		data := make([]float64, 10)
		for i := range data {
			data[i] = float64(c.Rank()*10 + i)
		}
		return Verify(c, data, f64, cmpF)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAcceptsEmptyAndRaggedRanks(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		var data []float64
		switch c.Rank() {
		case 1:
			data = []float64{1, 2, 3}
		case 3:
			data = []float64{4}
		}
		return Verify(c, data, f64, cmpF)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsLocalDisorder(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		data := []float64{1, 0}
		if c.Rank() == 1 {
			data = []float64{5, 6}
		}
		verr := Verify(c, data, f64, cmpF)
		if verr == nil {
			return errors.New("disorder not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCrossRankViolation(t *testing.T) {
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		// Locally sorted but rank 2's first record undercuts rank 1.
		var data []float64
		switch c.Rank() {
		case 0:
			data = []float64{1, 2}
		case 1:
			data = []float64{3, 9}
		case 2:
			data = []float64{5, 6}
		}
		verr := Verify(c, data, f64, cmpF)
		if verr == nil {
			return errors.New("cross-rank violation not detected on some rank")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyViolationPastEmptyRank(t *testing.T) {
	// The boundary must survive forwarding through an empty rank.
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 1}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		var data []float64
		switch c.Rank() {
		case 0:
			data = []float64{7, 8}
		case 1:
			data = nil
		case 2:
			data = []float64{5}
		}
		verr := Verify(c, data, f64, cmpF)
		if verr == nil {
			return errors.New("violation across an empty rank not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortThenVerify(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	in := makeTagged(topo.Size(), 300, zipfGen(50, 1.4))
	err := cluster.Run(topo, func(c *comm.Comm) error {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		out, err := Sort(c, local, taggedCodec, compareTagged, DefaultOptions())
		if err != nil {
			return err
		}
		return Verify(c, out, taggedCodec, compareTagged)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeMergeAllOnOneNode(t *testing.T) {
	// Every rank on a single node: the merge concentrates everything on
	// rank 0, and p'=1 means no exchange happens at all.
	topo := cluster.Topology{Nodes: 1, CoresPerNode: 4}
	in := makeTagged(topo.Size(), 200, uniformGen(70))
	opt := DefaultOptions()
	opt.TauM = 1 << 40
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)
	if len(out[0]) != topo.Size()*200 {
		t.Fatalf("leader holds %d records, want all %d", len(out[0]), topo.Size()*200)
	}
	for r := 1; r < topo.Size(); r++ {
		if len(out[r]) != 0 {
			t.Fatalf("follower %d holds %d records", r, len(out[r]))
		}
	}
}

func TestSortReusesCommAcrossCalls(t *testing.T) {
	// Two successive collective sorts on the same communicator must not
	// cross-talk (contexts and tags are reused; FIFO keeps them apart).
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	err := cluster.Run(topo, func(c *comm.Comm) error {
		for round := 0; round < 3; round++ {
			data := make([]float64, 300)
			for i := range data {
				data[i] = float64((i*31+round*7+c.Rank()*13)%50) / 7
			}
			out, err := Sort(c, data, f64, cmpF, DefaultOptions())
			if err != nil {
				return err
			}
			if err := Verify(c, out, f64, cmpF); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
