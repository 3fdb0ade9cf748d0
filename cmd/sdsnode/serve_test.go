package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

// readJobOutput concatenates one served job's per-rank shards in rank
// order.
func readJobOutput(t *testing.T, pattern string, ranks int) []float64 {
	t.Helper()
	var flat []float64
	for r := 0; r < ranks; r++ {
		path := fmt.Sprintf(pattern, r)
		part, err := recordio.ReadFile(path, codec.Float64{})
		if err != nil {
			t.Fatalf("job output %s: %v", path, err)
		}
		flat = append(flat, part...)
	}
	return flat
}

// TestServeModeJobStream is the job host end to end: one
// registered TCP world serving a manifest of heterogeneous jobs —
// generated and file-fed, stable and not — with every job's output
// independently verified. One bootstrap serves all of them; that the
// later jobs complete at all proves the fabric multiplexed instead of
// re-dialling (a second registration against the same registry would
// collide).
func TestServeModeJobStream(t *testing.T) {
	const p = 2
	dir := t.TempDir()

	in := filepath.Join(dir, "shared.f64")
	fileKeys := workload.ZipfKeys(3, 6000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, fileKeys); err != nil {
		t.Fatal(err)
	}

	manifest := filepath.Join(dir, "jobs.jsonl")
	jobs := fmt.Sprintf(`# serve-mode smoke manifest
{"name": "gen-zipf", "workload": "zipf", "n": 4000, "seed": 5, "out": %q}
{"name": "from-file", "in": %q, "out": %q}

{"name": "gen-uniform", "workload": "uniform", "n": 2500, "seed": 9, "stable": true, "out": %q}
`,
		filepath.Join(dir, "zipf.{rank}.f64"),
		in, filepath.Join(dir, "file.{rank}.f64"),
		filepath.Join(dir, "uni.{rank}.f64"))
	if err := os.WriteFile(manifest, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}

	registry := freePort(t)
	cmds := make([]*exec.Cmd, p)
	for r := 0; r < p; r++ {
		cmds[r] = child(t,
			"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p),
			"-registry", registry,
			"-serve", "-jobs", manifest)
	}
	for r, cmd := range cmds {
		if code := exitOf(cmd); code != 0 {
			t.Fatalf("rank %d exited %d, want 0", r, code)
		}
	}

	// Job 1: generated zipf, 4000 records per rank across p ranks.
	zipf := readJobOutput(t, filepath.Join(dir, "zipf.%d.f64"), p)
	if len(zipf) != 4000*p {
		t.Errorf("gen-zipf produced %d records, want %d", len(zipf), 4000*p)
	}
	if !slices.IsSorted(zipf) {
		t.Error("gen-zipf output is not globally sorted")
	}

	// Job 2: the shared file, shard-read — output must equal its sorted
	// contents exactly.
	fromFile := readJobOutput(t, filepath.Join(dir, "file.%d.f64"), p)
	want := append([]float64(nil), fileKeys...)
	slices.Sort(want)
	if !slices.Equal(fromFile, want) {
		t.Error("from-file output differs from the sorted input file")
	}

	// Job 3: generated uniform.
	uni := readJobOutput(t, filepath.Join(dir, "uni.%d.f64"), p)
	if len(uni) != 2500*p {
		t.Errorf("gen-uniform produced %d records, want %d", len(uni), 2500*p)
	}
	if !slices.IsSorted(uni) {
		t.Error("gen-uniform output is not globally sorted")
	}
}

// TestServeSkipsBadJob feeds the stream a job whose input file exists
// on no rank: the world must skip it in lockstep, run the jobs after
// it to completion, and exit 1 — degraded, not dead, and above all not
// deadlocked.
func TestServeSkipsBadJob(t *testing.T) {
	const p = 2
	dir := t.TempDir()
	manifest := filepath.Join(dir, "jobs.jsonl")
	jobs := fmt.Sprintf(`{"name": "before", "workload": "uniform", "n": 1500, "out": %q}
{"name": "broken", "in": %q}
{"name": "after", "workload": "zipf", "n": 1500, "seed": 21, "out": %q}
`,
		filepath.Join(dir, "before.{rank}.f64"),
		filepath.Join(dir, "does-not-exist.f64"),
		filepath.Join(dir, "after.{rank}.f64"))
	if err := os.WriteFile(manifest, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}

	registry := freePort(t)
	cmds := make([]*exec.Cmd, p)
	for r := 0; r < p; r++ {
		cmds[r] = child(t,
			"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p),
			"-registry", registry,
			"-serve", "-jobs", manifest)
	}
	for r, cmd := range cmds {
		if code := exitOf(cmd); code != 1 {
			t.Fatalf("rank %d exited %d, want 1 (stream finished degraded)", r, code)
		}
	}

	// The jobs around the broken one both completed.
	for _, job := range []struct {
		pattern string
		want    int
	}{
		{filepath.Join(dir, "before.%d.f64"), 1500 * p},
		{filepath.Join(dir, "after.%d.f64"), 1500 * p},
	} {
		out := readJobOutput(t, job.pattern, p)
		if len(out) != job.want {
			t.Errorf("%s: %d records, want %d", job.pattern, len(out), job.want)
		}
		if !slices.IsSorted(out) {
			t.Errorf("%s: output not globally sorted", job.pattern)
		}
	}
}

// TestServePerJobDeadline pins satellite behavior for -job-deadline in
// serve mode: the budget is per job, so quick jobs ahead in the stream
// must not eat a later slow job's clock — and when a job does overrun,
// the process exits 4 exactly as one-shot mode does.
func TestServePerJobDeadline(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "jobs.jsonl")
	// Three quick jobs, then one big enough to blow a 25ms budget on
	// its own. If the deadline were per process, the quick jobs would
	// consume it before the slow one even starts — the exit code would
	// be the same, so the real assertion is the paired test below: the
	// same quick jobs under the same flag pass when no job overruns.
	jobs := `{"name": "q0", "workload": "uniform", "n": 200}
{"name": "q1", "workload": "uniform", "n": 200}
{"name": "q2", "workload": "uniform", "n": 200}
{"name": "slow", "workload": "zipf", "n": 3000000, "deadline": "25ms"}
`
	if err := os.WriteFile(manifest, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := child(t, "-rank", "0", "-size", "1",
		"-registry", freePort(t),
		"-serve", "-jobs", manifest)
	if code := exitOf(cmd); code != 4 {
		t.Fatalf("overrunning served job exited %d, want 4", code)
	}
}

// TestServeDeadlineResetsBetweenJobs is the positive half: many jobs,
// each comfortably inside the per-job budget but far beyond it in
// total, must all pass — proof the clock restarts per job instead of
// accumulating across the stream.
func TestServeDeadlineResetsBetweenJobs(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "jobs.jsonl")
	var jobs string
	for i := 0; i < 6; i++ {
		jobs += fmt.Sprintf(`{"name": "j%d", "workload": "uniform", "n": 60000, "seed": %d}`+"\n", i, i+1)
	}
	if err := os.WriteFile(manifest, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := child(t, "-rank", "0", "-size", "1",
		"-registry", freePort(t),
		"-serve", "-jobs", manifest,
		"-job-deadline", "10s")
	if code := exitOf(cmd); code != 0 {
		t.Fatalf("stream with per-job headroom exited %d, want 0", code)
	}
}

// TestServeUsageErrors pins serve-mode flag validation.
func TestServeUsageErrors(t *testing.T) {
	t.Run("bad-manifest", func(t *testing.T) {
		dir := t.TempDir()
		manifest := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(manifest, []byte(`{"workloda": "zipf"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := child(t, "-rank", "0", "-size", "1",
			"-registry", freePort(t), "-serve", "-jobs", manifest)
		if code := exitOf(cmd); code != 2 {
			t.Fatalf("typo'd manifest exited %d, want 2 (before bootstrap)", code)
		}
	})
	t.Run("ckpt-with-serve", func(t *testing.T) {
		cmd := child(t, "-rank", "0", "-size", "1",
			"-registry", freePort(t), "-serve",
			"-ckpt-dir", t.TempDir())
		if code := exitOf(cmd); code != 2 {
			t.Fatalf("-ckpt-dir with -serve exited %d, want 2", code)
		}
	})
	t.Run("empty-stream", func(t *testing.T) {
		dir := t.TempDir()
		manifest := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(manifest, []byte("# nothing\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := child(t, "-rank", "0", "-size", "1",
			"-registry", freePort(t), "-serve", "-jobs", manifest)
		if code := exitOf(cmd); code != 2 {
			t.Fatalf("empty job stream exited %d, want 2", code)
		}
	})
}
