package workload

import "testing"

func TestPresetsRegistry(t *testing.T) {
	names := PresetNames()
	if len(names) != len(presets) {
		t.Fatalf("names/presets length mismatch")
	}
	for _, n := range names {
		pre, ok := LookupPreset(n)
		if !ok || pre.Name != n || pre.About == "" || pre.Gen == nil {
			t.Fatalf("preset %q malformed: %+v", n, pre)
		}
	}
	if _, ok := LookupPreset("nope"); ok {
		t.Fatal("unknown preset resolved")
	}
}

// TestPresetsDeterministic: the same (name, seed, n) must generate the
// same bytes — CLI reproducibility is the presets' whole point.
func TestPresetsDeterministic(t *testing.T) {
	for _, pre := range presets {
		a := pre.Gen(99, 512)
		b := pre.Gen(99, 512)
		if len(a) != 512 || len(b) != 512 {
			t.Fatalf("%s: wrong length %d/%d", pre.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs across runs", pre.Name, i)
			}
		}
	}
}

// TestPresetsSkewCharacter pins the duplicate structure the algorithm
// selection keys on: the Zipf/dup presets are duplicate-heavy, uniform
// is not.
func TestPresetsSkewCharacter(t *testing.T) {
	const n = 20000
	dup := func(name string) float64 {
		pre, ok := LookupPreset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		return Summarize(pre.Gen(7, n)).DupRatio
	}
	if d := dup("uniform"); d > 0.01 {
		t.Errorf("uniform duplication %.3f, want ~0", d)
	}
	// DupRatio is the heaviest key's share: dup spreads over 16 values
	// (~1/16 each), zipf concentrates ~32% on the hottest key, zipf-hot
	// over half, allequal everything.
	for _, tc := range []struct {
		name string
		min  float64
	}{{"dup", 0.04}, {"zipf", 0.2}, {"zipf-hot", 0.5}, {"allequal", 0.999}} {
		if d := dup(tc.name); d < tc.min {
			t.Errorf("%s duplication %.3f, want >= %.2f", tc.name, d, tc.min)
		}
	}
}
