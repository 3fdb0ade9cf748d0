package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

// e2eSeed varies the kill placement across CI soak-lane runs
// (FAULTNET_SEED=n go test -run Shrink), mirroring the in-proc soaks.
func e2eSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("FAULTNET_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad FAULTNET_SEED %q: %v", s, err)
	}
	t.Logf("fault schedule seed %d", v)
	return v
}

// shrinkArgs builds one rank's argument list for a shrink e2e. Every
// rank runs the fault-injection harness (the injected framing must be
// world-wide) with synchronous checkpoints, so a kill keyed on a
// manifest file fires deterministically at the phase boundary it names;
// the victim's kill spec rides on top. The finite receive timeout makes
// a survivor blocked on the dead rank fail out of the sort instead of
// waiting forever.
func shrinkArgs(rank, size int, registry, in, out, ckpt, trc string, kill ...string) []string {
	args := []string{
		"-rank", fmt.Sprint(rank), "-size", fmt.Sprint(size),
		"-registry", registry,
		"-in", in, "-out", out,
		"-ckpt-dir", ckpt, "-ckpt-sync", "-allow-shrink",
		"-fault-wrap",
		"-trace", trc,
		"-recv-timeout", "2s", "-gap-timeout", "500ms",
		"-retries", "3", "-retry-base", "1ms", "-retry-max", "20ms",
	}
	return append(args, kill...)
}

// TestDistributedShrink is the tentpole's end-to-end story: 4 real OS
// processes over TCP, one dying a hard death mid-exchange, and the
// other three must finish the sort from the last checkpoint cut —
// exiting 5, with the concatenated survivor shards reproducing the
// sorted input.
func TestDistributedShrink(t *testing.T) {
	const p = 4
	seed := e2eSeed(t)
	victim := int(seed % p)
	if victim < 0 {
		victim += p
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "shared.f64")
	keys := workload.ZipfKeys(seed, p*20_000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	registry := freePort(t)

	// The kill trigger is the victim's own partition manifest: with
	// -ckpt-sync it is committed before the exchange begins, so the
	// victim's process dies on its first exchange operation.
	full, err := checkpoint.NewStore(ckpt, p)
	if err != nil {
		t.Fatal(err)
	}
	trigger := full.ManifestPath(0, checkpoint.PhasePartition, victim)

	cmds := make([]*exec.Cmd, p)
	outs := make([]string, p)
	trcs := make([]string, p)
	for r := 0; r < p; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("out-%d.f64", r))
		trcs[r] = filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", r))
		args := shrinkArgs(r, p, registry, in, outs[r], ckpt, trcs[r],
			"-fault-kill-rank", fmt.Sprint(victim), "-fault-kill-after-file", trigger)
		cmds[r] = child(t, args...)
	}

	codes := make([]int, p)
	for r := 0; r < p; r++ {
		codes[r] = exitOf(cmds[r])
	}
	for r := 0; r < p; r++ {
		if r == victim {
			if codes[r] != 137 {
				t.Fatalf("killed rank %d exited %d, want 137", r, codes[r])
			}
			continue
		}
		if codes[r] != exitDegraded {
			t.Fatalf("survivor rank %d exited %d, want %d (degraded success)", r, codes[r], exitDegraded)
		}
	}

	// Concatenating the survivor shards in rank order must reproduce
	// the sorted input — the dead rank's records included.
	var flat []float64
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		part, err := recordio.ReadFile(outs[r], codec.Float64{})
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, part...)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(flat, want) {
		t.Fatalf("degraded output differs from the sorted input (%d records, want %d)", len(flat), len(want))
	}

	// The recovery must have been a shrink, not a relaunch: every
	// survivor traced the shrink decision.
	for r := 0; r < p; r++ {
		if r == victim {
			continue
		}
		trc, err := os.ReadFile(trcs[r])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(trc), `"supervisor.shrink"`) {
			t.Errorf("rank %d trace has no supervisor.shrink event", r)
		}
	}
}

// TestDistributedShrinkCascade kills a second rank the moment the
// shrink commits its redistributed cut: the degraded world cannot
// shrink again (shrinkAndResume runs once), so the remaining survivors
// must fall back to the exit-3 full-relaunch contract.
func TestDistributedShrinkCascade(t *testing.T) {
	const p = 4
	dir := t.TempDir()
	in := filepath.Join(dir, "shared.f64")
	keys := workload.ZipfKeys(e2eSeed(t), p*20_000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	registry := freePort(t)

	full, err := checkpoint.NewStore(ckpt, p)
	if err != nil {
		t.Fatal(err)
	}
	// Shrunken stores share the directory layout, so the redistributed
	// cut's first manifest — written by the shrink itself, at the
	// degraded epoch — is an unambiguous "the shrink committed" signal.
	shrunk, err := checkpoint.NewStore(ckpt, p-1)
	if err != nil {
		t.Fatal(err)
	}
	// First kill: rank 1 dies mid-exchange of the full world. Second
	// kill: rank 2 dies on its first transport operation after the
	// shrink commits — before the degraded epoch can make progress.
	kills := map[int][]string{
		1: {"-fault-kill-rank", "1", "-fault-kill-after-file", full.ManifestPath(0, checkpoint.PhasePartition, 1)},
		2: {"-fault-kill-rank", "2", "-fault-kill-after-file", shrunk.ManifestPath(1, checkpoint.PhaseLocalSort, 0)},
	}

	cmds := make([]*exec.Cmd, p)
	for r := 0; r < p; r++ {
		out := filepath.Join(dir, fmt.Sprintf("out-%d.f64", r))
		trc := filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", r))
		cmds[r] = child(t, shrinkArgs(r, p, registry, in, out, ckpt, trc, kills[r]...)...)
	}

	codes := make([]int, p)
	for r := 0; r < p; r++ {
		codes[r] = exitOf(cmds[r])
	}
	for _, r := range []int{1, 2} {
		if codes[r] != 137 {
			t.Fatalf("killed rank %d exited %d, want 137 (codes %v)", r, codes[r], codes)
		}
	}
	for _, r := range []int{0, 3} {
		if codes[r] != exitPeerLost {
			t.Fatalf("rank %d exited %d after the cascade, want %d (restartable; codes %v)", r, codes[r], exitPeerLost, codes)
		}
	}
}
