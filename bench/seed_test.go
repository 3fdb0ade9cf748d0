package main

import (
	"bytes"
	"testing"

	"sdssort/internal/codec"
)

// input is the bytes a workload would sort for a seed, at smoke size.
func input[T any](t *testing.T, s spec[T], seed int64) []byte {
	t.Helper()
	j := newJob(s, config{seed: seed, quick: true, outDir: t.TempDir()})
	j.spillMem = 0 // the bytes, not the file they would be written to
	if err := j.generate(); err != nil {
		t.Fatal(err)
	}
	return codec.EncodeSlice(s.cd, nil, j.input)
}

func testSeed[T any](t *testing.T, s spec[T]) {
	t.Run(s.name, func(t *testing.T) {
		a, again, other := input(t, s, 11), input(t, s, 11), input(t, s, 12)
		if len(a) == 0 {
			t.Fatal("empty input")
		}
		if !bytes.Equal(a, again) {
			t.Error("the same seed gave different inputs")
		}
		if bytes.Equal(a, other) {
			t.Error("different seeds gave the same input")
		}
	})
}

func TestSeedDecidesInputs(t *testing.T) {
	testSeed(t, uniformInproc)
	testSeed(t, cosmoSkewInproc)
	testSeed(t, ptfStableTCP)
	testSeed(t, uniformSpill)
}

// TestSeedDecidesCounts: what the sort does with an input depends on the
// input alone, so the counts the program makes repeat exactly for a
// seed. The skewed workload is the one where they could plausibly not.
func TestSeedDecidesCounts(t *testing.T) {
	exact := []string{"rdfa", "core.exchange_bytes", "core.exchange_chunks", "core.imbalance_exchange"}
	read := func(seed int64) map[string]float64 {
		got := map[string]float64{}
		for _, trace := range []bool{false, true} {
			rf, err := measure(config{
				workload: cosmoSkewInproc.name, seed: seed, trace: trace,
				quick: true, outDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range exact {
				if m, ok := rf.Workloads[cosmoSkewInproc.name].Metrics[k]; ok {
					got[k] = m.Value
				}
			}
		}
		if len(got) != len(exact) {
			t.Fatalf("run reported %v, want all of %v", got, exact)
		}
		return got
	}
	a, again, other := read(21), read(21), read(22)
	differs := false
	for _, k := range exact {
		if a[k] != again[k] {
			t.Errorf("%s: %v then %v on the same seed", k, a[k], again[k])
		}
		differs = differs || a[k] != other[k]
	}
	if !differs {
		t.Error("another seed moved none of the counts; is the seed reaching the generator?")
	}
}
