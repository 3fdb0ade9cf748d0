package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// NodeJob is one line of the sdsnode -serve job stream: a JSON object
// per job, streamed on stdin or read from a -jobs manifest file. Every
// rank of the world must consume the identical stream — job i runs
// collectively on the communicator JobCommName(world, i).
//
// Zero-valued fields inherit the process's one-shot flags (-workload,
// -alpha, -n, -seed, -stage; Stable additionally ORs with -stable), so
// a manifest only states what differs per job.
type NodeJob struct {
	// Name labels the job in logs (default "job<index>").
	Name string `json:"name,omitempty"`
	// Workload generates this rank's shard: "uniform", "zipf", or any
	// workload preset name.
	Workload string `json:"workload,omitempty"`
	// Algo selects the sorting driver by algo-registry name ("sds",
	// "hss", "ams", "hyksort", "psrs", "auto"); empty inherits the
	// -algo flag. Validated against the registry before the stream runs.
	Algo string `json:"algo,omitempty"`
	// Alpha is the Zipf exponent.
	Alpha float64 `json:"alpha,omitempty"`
	// N is the records per rank when generating.
	N int `json:"n,omitempty"`
	// Seed seeds the generator (combined with the rank).
	Seed int64 `json:"seed,omitempty"`
	// In reads this rank's shard from a shared record file instead of
	// generating it.
	In string `json:"in,omitempty"`
	// Out, when set, receives the sorted shard. A "{rank}" placeholder
	// is substituted per rank; without one, ".r<rank>" is appended so
	// ranks never clobber each other.
	Out string `json:"out,omitempty"`
	// Stable requests a stable sort for this job.
	Stable bool `json:"stable,omitempty"`
	// Stage bounds the staged-exchange window in bytes (0 inherits the
	// -stage flag).
	Stage int64 `json:"stage,omitempty"`
	// Deadline bounds this job's wall time (a Go duration string,
	// e.g. "30s"); empty inherits the -job-deadline flag. Exceeding it
	// exits the process with code 4, abandoning any remaining jobs.
	Deadline string `json:"deadline,omitempty"`
}

// JobCommName names job id's communicator under the world name. Every
// rank derives the same name for the same job, which is what keeps the
// job's message context globally agreed.
func JobCommName(world string, id int) string {
	return fmt.Sprintf("%s/job%d", world, id)
}

// OutPath resolves the job's output path for one rank: "{rank}" is
// substituted when present, otherwise ".r<rank>" is appended. Empty Out
// stays empty (no output file).
func (j NodeJob) OutPath(rank int) string {
	if j.Out == "" {
		return ""
	}
	if strings.Contains(j.Out, "{rank}") {
		return strings.ReplaceAll(j.Out, "{rank}", strconv.Itoa(rank))
	}
	return fmt.Sprintf("%s.r%d", j.Out, rank)
}

// DeadlineDuration parses the per-job deadline, returning fallback when
// the job does not set one.
func (j NodeJob) DeadlineDuration(fallback time.Duration) (time.Duration, error) {
	if j.Deadline == "" {
		return fallback, nil
	}
	d, err := time.ParseDuration(j.Deadline)
	if err != nil {
		return 0, fmt.Errorf("job %q: bad deadline %q: %v", j.Name, j.Deadline, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("job %q: negative deadline %q", j.Name, j.Deadline)
	}
	return d, nil
}

// DecodeJobs reads a job stream: one JSON object per line, with blank
// lines and #-comments skipped. Unknown fields are an error — a typo'd
// manifest should fail loudly before the first job runs, not sort the
// wrong workload.
func DecodeJobs(r io.Reader) ([]NodeJob, error) {
	var jobs []NodeJob
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var j NodeJob
		if err := dec.Decode(&j); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if j.Name == "" {
			j.Name = fmt.Sprintf("job%d", len(jobs))
		}
		if _, err := j.DeadlineDuration(0); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading job stream: %v", err)
	}
	return jobs, nil
}
