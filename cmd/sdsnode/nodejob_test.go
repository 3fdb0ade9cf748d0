package main

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestDecodeJobs(t *testing.T) {
	manifest := `
# warm-up, tiny
{"name": "small", "workload": "uniform", "n": 1000}

{"workload": "zipf", "alpha": 1.6, "n": 5000, "out": "/tmp/z.{rank}", "deadline": "30s"}
{"in": "/data/shard.bin", "stable": true, "stage": 65536}
`
	jobs, err := DecodeJobs(strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("decoded %d jobs, want 3 (blank lines and comments skipped)", len(jobs))
	}
	if jobs[0].Name != "small" || jobs[0].N != 1000 {
		t.Errorf("job 0 = %+v", jobs[0])
	}
	// Unnamed jobs default to their stream index.
	if jobs[1].Name != "job1" {
		t.Errorf("job 1 name = %q, want job1", jobs[1].Name)
	}
	d, err := jobs[1].DeadlineDuration(0)
	if err != nil || d != 30*time.Second {
		t.Errorf("job 1 deadline = %v, %v", d, err)
	}
	if !jobs[2].Stable || jobs[2].Stage != 65536 || jobs[2].In != "/data/shard.bin" {
		t.Errorf("job 2 = %+v", jobs[2])
	}
}

func TestDecodeJobsRejectsUnknownField(t *testing.T) {
	_, err := DecodeJobs(strings.NewReader(`{"name": "x", "workloda": "zipf"}`))
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("typo'd field: %v, want a line-1 error", err)
	}
}

func TestDecodeJobsRejectsBadDeadline(t *testing.T) {
	if _, err := DecodeJobs(strings.NewReader(`{"deadline": "fast"}`)); err == nil {
		t.Fatal("unparseable deadline accepted")
	}
	if _, err := DecodeJobs(strings.NewReader(`{"deadline": "-1s"}`)); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

func TestOutPath(t *testing.T) {
	for _, tc := range []struct {
		out  string
		rank int
		want string
	}{
		{"", 3, ""}, // no output requested stays no output
		{"/tmp/sorted.{rank}.bin", 2, "/tmp/sorted.2.bin"},
		{"/tmp/sorted.bin", 1, "/tmp/sorted.bin.r1"}, // ranks never clobber each other
	} {
		if got := (NodeJob{Out: tc.out}).OutPath(tc.rank); got != tc.want {
			t.Errorf("OutPath(%q, rank %d) = %q, want %q", tc.out, tc.rank, got, tc.want)
		}
	}
}

func TestDeadlineDurationFallback(t *testing.T) {
	d, err := (NodeJob{}).DeadlineDuration(5 * time.Second)
	if err != nil || d != 5*time.Second {
		t.Errorf("empty deadline: %v, %v, want the fallback", d, err)
	}
	d, err = (NodeJob{Deadline: "100ms"}).DeadlineDuration(5 * time.Second)
	if err != nil || d != 100*time.Millisecond {
		t.Errorf("explicit deadline: %v, %v, want 100ms overriding the fallback", d, err)
	}
}

// TestJobCommName pins the cross-process naming convention: every rank
// of a served world derives job i's communicator name the same way, so
// the message contexts agree.
func TestJobCommName(t *testing.T) {
	if got := JobCommName("world", 0); got != "world/job0" {
		t.Errorf("JobCommName(world, 0) = %q", got)
	}
	if got := JobCommName("world@e2", 7); got != "world@e2/job7" {
		t.Errorf("JobCommName(world@e2, 7) = %q", got)
	}
}

// FuzzDecodeJobs feeds the manifest decoder arbitrary bytes: it must
// never panic, and whatever it accepts must survive a round trip — the
// accepted jobs re-encoded one JSON object per line decode to the same
// jobs, so a manifest means one thing however it was spelled.
func FuzzDecodeJobs(f *testing.F) {
	f.Add("")
	f.Add("# comment only\n\n")
	f.Add(`{"name": "small", "workload": "uniform", "n": 1000}` + "\n" + `{"in": "/data/shard.bin", "stable": true, "stage": 65536}`)
	f.Add(`{"workload": "zipf", "alpha": 1.6, "out": "/tmp/z.{rank}", "deadline": "30s", "algo": "auto", "seed": -3}`)
	f.Add(`{"deadline": "-1s"}`)
	f.Add(`{"name": "x", "workloda": "zipf"}`)
	f.Add(`{"n": 1} {"n": 2}`)
	f.Fuzz(func(t *testing.T, manifest string) {
		jobs, err := DecodeJobs(strings.NewReader(manifest))
		if err != nil {
			return
		}
		var again strings.Builder
		for _, j := range jobs {
			if _, err := j.DeadlineDuration(0); err != nil {
				t.Fatalf("accepted job %+v has a bad deadline: %v", j, err)
			}
			line, err := json.Marshal(j)
			if err != nil {
				t.Fatalf("accepted job %+v does not re-encode: %v", j, err)
			}
			again.Write(line)
			again.WriteByte('\n')
		}
		jobs2, err := DecodeJobs(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, again.String())
		}
		if !slices.Equal(jobs, jobs2) {
			t.Fatalf("round trip changed the stream:\n%+v\n%+v", jobs, jobs2)
		}
	})
}
