package workload

// Preset is a named float64-key workload reproducible from the CLI:
// sdsgen emits preset data to files, sdsnode accepts a preset name as a
// job workload, and the algorithm-comparison experiments draw the
// skewed/duplicate-heavy inputs from here so every surface generates
// the same bytes for the same (name, seed, n).
type Preset struct {
	Name  string
	About string
	Gen   func(seed int64, n int) []float64
}

// presets in display order. The Zipf entries are the skew-sensitive
// algorithm comparisons' staple: zipf is the paper's α=1.4 synthetic,
// zipf-hot concentrates harder (α=2.1 puts over half the mass on the
// hottest keys), dup draws from 16 distinct values, and allequal is the
// degenerate single-key dataset.
var presets = []Preset{
	{Name: "uniform", About: "i.i.d. uniform keys in [0,1) — the balanced baseline", Gen: Uniform},
	{Name: "zipf", About: "Zipf α=1.4 over the paper's 13500-value universe — heavy duplication, the paper's skewed synthetic", Gen: func(seed int64, n int) []float64 {
		return ZipfKeys(seed, n, 1.4, DefaultZipfUniverse)
	}},
	{Name: "zipf-hot", About: "Zipf α=2.1 — most of the mass on a handful of hot keys; collapses duplicate-oblivious partitions", Gen: func(seed int64, n int) []float64 {
		return ZipfKeys(seed, n, 2.1, DefaultZipfUniverse)
	}},
	{Name: "dup", About: "16 distinct values, uniformly drawn — duplicate-heavy without skew", Gen: func(seed int64, n int) []float64 {
		return FewDistinct(seed, n, 16)
	}},
	{Name: "allequal", About: "every key identical — the degenerate duplicate extreme", Gen: func(_ int64, n int) []float64 {
		return AllEqual(n, 42)
	}},
	{Name: "gaussian", About: "normal(0.5, 0.15) keys — mild central clustering", Gen: Gaussian},
	{Name: "exponential", About: "exp(rate 4) keys — one-sided density skew, few duplicates", Gen: func(seed int64, n int) []float64 {
		return Exponential(seed, n, 4)
	}},
}

// PresetNames returns the preset names in display order.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	return names
}

// LookupPreset returns the preset registered under name.
func LookupPreset(name string) (Preset, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}

func init() {
	// The registry is ordered for display, but duplicate names would
	// silently shadow; fail fast in tests and at first use.
	seen := map[string]bool{}
	for _, p := range presets {
		if seen[p.Name] {
			panic("workload: duplicate preset " + p.Name)
		}
		seen[p.Name] = true
	}
}
