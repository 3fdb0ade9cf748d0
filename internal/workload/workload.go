// Package workload generates the datasets of the paper's evaluation:
// Uniform and Zipf-distributed synthetic keys (§4.1), partially ordered
// inputs (§2.7), and synthetic stand-ins for the two real datasets — the
// Palomar Transient Factory detections (28.02% duplicated real-bogus
// scores) and the cosmology particle snapshot (cluster-ID keys with
// δ=0.73% and a six-float payload).
//
// Each generator is deterministic in its seed; distributed experiments
// derive per-rank seeds so every rank builds its shard independently.
package workload

import (
	"math"
	"math/rand"
	"slices"

	"sdssort/internal/codec"
)

// Uniform returns n float64 keys drawn uniformly from [0, 1).
func Uniform(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// DefaultZipfUniverse is the value-universe size used throughout the
// experiments. With exact normalisation it reproduces the paper's
// Table 2 α→δ mapping closely (α=0.4→δ≈0.2%, α=0.9→δ≈6.4%) and the
// Table 1 settings (α=1.4→δ≈32%, α=2.1→δ≈63%).
const DefaultZipfUniverse = 13500

// Zipf samples from p(i) = C/i^α over i = 1..universe by inverse-CDF
// lookup. Unlike math/rand's Zipf it accepts any α > 0, which the
// paper's α range (0.4-2.1) requires.
type Zipf struct {
	cdf []float64 // cdf[i] = P(value <= i+1)
}

// NewZipf builds the sampler. It panics on a non-positive universe or α,
// mirroring math/rand's constructor contract.
func NewZipf(alpha float64, universe int) *Zipf {
	if universe <= 0 || alpha <= 0 {
		panic("workload: NewZipf needs positive alpha and universe")
	}
	cdf := make([]float64, universe)
	sum := 0.0
	for i := 1; i <= universe; i++ {
		sum += math.Pow(float64(i), -alpha)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one value in [1, universe].
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// MaxProbability returns the probability of the most frequent value —
// the asymptotic duplication ratio δ of a large sample.
func (z *Zipf) MaxProbability() float64 { return z.cdf[0] }

// ZipfKeys returns n float64 keys (the sampled ranks as floats, so the
// popular values cluster at the low end of the distribution, as the
// paper describes skewed data).
func ZipfKeys(seed int64, n int, alpha float64, universe int) []float64 {
	z := NewZipf(alpha, universe)
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(z.Sample(rng))
	}
	return out
}

// DupRatio returns δ = d/N (as a fraction, not percent): the share of
// records held by the most frequent key. This is the paper's maximum
// replication ratio.
func DupRatio[T comparable](data []T) float64 {
	if len(data) == 0 {
		return 0
	}
	counts := make(map[T]int)
	maxCount := 0
	for _, v := range data {
		counts[v]++
		if counts[v] > maxCount {
			maxCount = counts[v]
		}
	}
	return float64(maxCount) / float64(len(data))
}

// KSorted returns n keys formed from `blocks` concatenated sorted
// blocks — the "partially ordered data" regime where the local sort's
// run detection pays off.
func KSorted(seed int64, n, blocks int) []float64 {
	if blocks < 1 {
		blocks = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n)
	per := n / blocks
	for b := 0; b < blocks; b++ {
		size := per
		if b == blocks-1 {
			size = n - len(out)
		}
		blk := make([]float64, size)
		for i := range blk {
			blk[i] = rng.Float64()
		}
		sortFloats(blk)
		out = append(out, blk...)
	}
	return out
}

// Reversed returns a strictly decreasing sequence.
func Reversed(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i)
	}
	return out
}

func sortFloats(v []float64) { slices.Sort(v) }

// PTFDupRatio is the duplication ratio of the Palomar Transient Factory
// dataset the paper reports (28.02% of records share one real-bogus
// score).
const PTFDupRatio = 0.2802

// PTF synthesises Palomar Transient Factory detections: a real-bogus
// score in [0, 1] as the key, an object id as payload. A PTFDupRatio
// point mass at score 0 models the bogus-detection pile-up that makes
// the real dataset 28.02% duplicated; the rest follows a
// bogus-skewed density.
func PTF(seed int64, n int) []codec.PTFRecord {
	rng := rand.New(rand.NewSource(seed))
	out := make([]codec.PTFRecord, n)
	for i := range out {
		var score float64
		switch {
		case rng.Float64() < PTFDupRatio:
			score = 0 // hard-bogus pile-up: the duplicated value
		default:
			// Squaring skews the mass toward low (bogus) scores.
			u := rng.Float64()
			score = u * u
		}
		out[i] = codec.PTFRecord{Score: score, ObjID: uint64(seed)<<32 | uint64(i)}
	}
	return out
}

// CosmoDupRatio is the duplication ratio of the cosmology dataset the
// paper reports: the largest halo holds 0.73% of all particles.
const CosmoDupRatio = 0.0073

// Cosmology synthesises BD-CATS-style particles: the key is the cluster
// (halo) id, with cluster sizes following a power law scaled so the
// largest cluster holds CosmoDupRatio of the particles; position and
// velocity are payload. Particles arrive shuffled, as a simulation
// snapshot would.
func Cosmology(seed int64, n int) []codec.Particle {
	rng := rand.New(rand.NewSource(seed))
	out := make([]codec.Particle, n)
	// Cluster sizes ~ i^-1.3, normalised so cluster 1 gets
	// CosmoDupRatio of records: δ/ i^1.3 per cluster until exhausted,
	// remainder spread as singleton "field" particles.
	i := 0
	cluster := int64(1)
	for i < n {
		size := int(float64(n) * CosmoDupRatio / math.Pow(float64(cluster), 1.3))
		if size < 1 {
			size = 1
		}
		for k := 0; k < size && i < n; k++ {
			out[i] = randParticle(rng, cluster)
			i++
		}
		cluster++
	}
	// Shuffle so the input is unordered in cluster id.
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func randParticle(rng *rand.Rand, cluster int64) codec.Particle {
	var p codec.Particle
	p.ClusterID = cluster
	for k := 0; k < 3; k++ {
		p.Pos[k] = rng.Float32() * 100
		p.Vel[k] = (rng.Float32() - 0.5) * 600
	}
	return p
}

// Summary describes a key set the way the evaluation talks about
// datasets: size, range, duplication ratio δ, distinct values, and the
// sorted-run structure that drives the adaptive local ordering.
type Summary struct {
	N        int
	Min, Max float64
	DupRatio float64 // δ as a fraction
	Distinct int
	Runs     int // maximal non-decreasing runs in input order
}

// Summarize computes a Summary of keys (not modified).
func Summarize(keys []float64) Summary {
	s := Summary{N: len(keys)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = keys[0], keys[0]
	s.Runs = 1
	counts := make(map[float64]int, 1024)
	maxCount := 0
	for i, v := range keys {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		counts[v]++
		if counts[v] > maxCount {
			maxCount = counts[v]
		}
		if i > 0 && v < keys[i-1] {
			s.Runs++
		}
	}
	s.Distinct = len(counts)
	s.DupRatio = float64(maxCount) / float64(s.N)
	return s
}
