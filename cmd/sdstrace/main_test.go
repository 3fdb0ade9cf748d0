package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("SDSTRACE_CLI_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SDSTRACE_CLI_CHILD=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestSummariseTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	lines := strings.Join(sortSpans(0, 0, "exchange", 10, "completed"), "\n")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"4 events",
		"exchange: 10 records",
		"sorts: 1 started, 1 completed",
		"critical path: sort over 1 rank(s), 0.090ms",
		"exchange            0.040ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// sortSpans is one rank's sort as span events: the root, one exchange
// (or spill) child receiving recv records, and the root's end reason.
func sortSpans(rank, t0 int, exchange string, recv int, reason string) []string {
	ev := func(seq, at int, kind, detail string) string {
		return fmt.Sprintf(`{"seq":%d,"elapsed_us":%d,"rank":%d,"kind":%q,"detail":{%s}}`, seq, t0+at, rank, kind, detail)
	}
	return []string{
		ev(1, 0, "span.begin", `"span":1,"name":"sort","records":10`),
		ev(2, 40, "span.begin", fmt.Sprintf(`"span":2,"parent":1,"name":%q`, exchange)),
		ev(3, 80, "span.end", fmt.Sprintf(`"span":2,"name":%q,"recv_records":%d`, exchange, recv)),
		ev(4, 90, "span.end", fmt.Sprintf(`"span":1,"name":"sort","reason":%q`, reason)),
	}
}

// TestReportWithoutSortRoot: a trace with no "sort" root span still
// gets its summary, and no critical path.
func TestReportWithoutSortRoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	line := `{"seq":1,"elapsed_us":0,"rank":0,"kind":"clock.offset","detail":{"offset_us":0}}`
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "1 events") || strings.Contains(out, "critical path") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestBadArgs(t *testing.T) {
	if out, err := runCLI(t); err == nil {
		t.Fatalf("no-arg run accepted:\n%s", out)
	}
	if out, err := runCLI(t, "/nonexistent.jsonl"); err == nil {
		t.Fatalf("missing file accepted:\n%s", out)
	}
}

func TestMergeMultipleTraces(t *testing.T) {
	dir := t.TempDir()
	r0 := filepath.Join(dir, "rank0.jsonl")
	r1 := filepath.Join(dir, "rank1.jsonl")
	if err := os.WriteFile(r0, []byte(strings.Join(sortSpans(0, 0, "exchange", 6, "completed"), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r1, []byte(strings.Join(sortSpans(1, 5, "spill", 4, "spilled"), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, r0, r1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"8 events across 2 ranks",
		"exchange: 10 records",
		"sorts: 2 started, 2 completed",
		"done reasons: completed=1 spilled=1",
		"critical path: sort over 2 rank(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestMergeRejectsBadFileAmongMany(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	if err := os.WriteFile(good, []byte(sortSpans(0, 0, "exchange", 1, "completed")[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, good, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatalf("missing second file accepted:\n%s", out)
	}
}
