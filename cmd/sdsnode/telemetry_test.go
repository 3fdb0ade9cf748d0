//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// tryScrape fetches one telemetry path, returning an error while the
// child is still booting.
func tryScrape(addr, path string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	res, err := client.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %d\n%s", path, res.StatusCode, body)
	}
	return string(body), nil
}

// childLog collects a child's stderr as it is written, so the test can
// read the address the rank reports and, when a scrape never lands, show
// what the child was doing — "port taken" and "stream drained" look the
// same from the scraper's side.
type childLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *childLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *childLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// telemetryAddr waits for the child to log the address its telemetry
// server actually bound (the flag asks for port 0).
func telemetryAddr(t *testing.T, l *childLog) string {
	t.Helper()
	const marker = "telemetry on http://"
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if _, rest, ok := strings.Cut(l.String(), marker); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				return addr
			}
		}
	}
	t.Fatalf("the rank never reported a telemetry address; its stderr:\n%s", l)
	return ""
}

// waitScrape polls path until pred accepts the body or the deadline
// passes, in which case the child's stderr goes into the failure.
func waitScrape(t *testing.T, l *childLog, addr, path string, pred func(string) bool) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var body string
	var err error
	for time.Now().Before(deadline) {
		body, err = tryScrape(addr, path)
		if err == nil && pred(body) {
			return body
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s on %s never matched; last error: %v, last body:\n%s\nthe rank's stderr:\n%s", path, addr, err, body, l)
	return ""
}

// metricValue extracts an un-labelled series value, or -1 if absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestServeTelemetryPlane is the end-to-end acceptance run: a real
// 2-process TCP world in -serve mode with -telemetry-addr on every
// rank, each scraped over HTTP while a job stream runs. Every rank
// serves its own series, /healthz, /debug/pprof and /debug/trace; a
// fabric-wide figure is the scraper's sum over the ranks.
// The stream cannot drain under the scrapers: its last job writes each
// rank's shard into a FIFO nobody reads until every scrape-dependent
// assertion has passed.
func TestServeTelemetryPlane(t *testing.T) {
	const (
		p     = 2
		nJobs = 30
		n     = 20000
	)
	dir := t.TempDir()
	registry := freePort(t)

	// All jobs are decoded before the world boots, so the whole stream
	// is written up front. The last job's output path is a FIFO per
	// rank: the shard (p·n·8 bytes, well past a pipe's capacity) blocks
	// in its write until the test opens the read end — the explicit
	// signal that holds the plane up, where a "long tail" job only
	// raced the scrapers.
	var manifest strings.Builder
	for i := 0; i < nJobs; i++ {
		out := fmt.Sprintf("job%d.{rank}.f64", i)
		if i == nJobs-1 {
			out = "hold.{rank}"
		}
		fmt.Fprintf(&manifest, `{"name": "tel%d", "workload": "zipf", "n": %d, "seed": %d, "out": %q}`+"\n",
			i, n, i+1, filepath.Join(dir, out))
	}
	holds := make([]string, p)
	for r := range holds {
		holds[r] = filepath.Join(dir, fmt.Sprintf("hold.%d", r))
		if err := syscall.Mkfifo(holds[r], 0o600); err != nil {
			t.Fatal(err)
		}
	}

	// Every rank binds its telemetry port itself (:0) and reports it on
	// stderr: no probe-then-bind window for another process to take it.
	logs := make([]childLog, p)
	cmds := make([]*exec.Cmd, p)
	for r := 0; r < p; r++ {
		cmd := exec.Command(os.Args[0],
			"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p),
			"-registry", registry, "-serve",
			"-mem", fmt.Sprint(256<<20),
			"-telemetry-addr", "127.0.0.1:0")
		cmd.Stderr = &logs[r]
		cmd.Env = append(os.Environ(), "SDSNODE_CLI_CHILD=1")
		cmd.Stdin = strings.NewReader(manifest.String())
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
		// A failed assertion must not leave the ranks parked on the FIFOs.
		t.Cleanup(func() { cmd.Process.Kill() })
	}

	var jobsDone float64
	for r := 0; r < p; r++ {
		l := &logs[r]
		addr := telemetryAddr(t, l)

		// The plane is up while the stream runs: node info, the memory
		// budget and the transport counters are scrapeable.
		body := waitScrape(t, l, addr, "/metrics", func(b string) bool {
			return strings.Contains(b, "sds_node_info")
		})
		if want := fmt.Sprintf(`sds_node_info{epoch="0",rank="%d",size="2"} 1`, r); !strings.Contains(body, want) {
			t.Errorf("rank %d: node info series wrong, want %s:\n%s", r, want, body)
		}
		if v := metricValue(body, "sds_mem_budget_bytes"); v != 256<<20 {
			t.Errorf("rank %d: sds_mem_budget_bytes = %v, want %d", r, v, 256<<20)
		}

		// At least one job completes and its sort crossed the wire.
		body = waitScrape(t, l, addr, "/metrics", func(b string) bool {
			return metricValue(b, "sds_node_jobs_done_total") >= 1 &&
				metricValue(b, "sds_tcp_frames_sent_total") >= 1
		})
		if v := metricValue(body, "sds_node_jobs_failed_total"); v != 0 {
			t.Errorf("rank %d: sds_node_jobs_failed_total = %v, want 0", r, v)
		}
		// A rank serves only its own registry: no fabric-wide families.
		if strings.Contains(body, "_fabric_") {
			t.Errorf("rank %d serves fabric-wide series:\n%s", r, body)
		}
		jobsDone += metricValue(body, "sds_node_jobs_done_total")

		// /healthz agrees, as JSON.
		hb := waitScrape(t, l, addr, "/healthz", func(b string) bool { return true })
		var h struct {
			Status string `json:"status"`
			Rank   int    `json:"rank"`
			Size   int    `json:"size"`
			Done   int64  `json:"jobs_done"`
		}
		if err := json.Unmarshal([]byte(hb), &h); err != nil {
			t.Fatalf("rank %d: healthz not JSON: %v\n%s", r, err, hb)
		}
		if h.Status != "ok" || h.Rank != r || h.Size != p || h.Done < 1 {
			t.Errorf("rank %d: healthz payload: %+v", r, h)
		}

		// /debug/trace replays recent events as JSONL; /debug/pprof is
		// mounted.
		tb := waitScrape(t, l, addr, "/debug/trace", func(b string) bool {
			return strings.Contains(b, `"name":"sort","reason":`)
		})
		if !strings.Contains(tb, `"kind":`) {
			t.Errorf("rank %d: trace not JSONL:\n%s", r, tb)
		}
		if _, err := tryScrape(addr, "/debug/pprof/"); err != nil {
			t.Errorf("rank %d: pprof: %v", r, err)
		}
	}
	// The fabric-wide figure is the scraper's sum: every rank ran a job.
	if jobsDone < p {
		t.Errorf("sds_node_jobs_done_total summed over the ranks = %v, want >= %d", jobsDone, p)
	}

	// Release the last job; the stream drains and the world exits clean.
	var drains sync.WaitGroup
	for _, hold := range holds {
		drains.Add(1)
		go func() {
			defer drains.Done()
			f, err := os.Open(hold)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			if _, err := io.Copy(io.Discard, f); err != nil {
				t.Errorf("draining %s: %v", hold, err)
			}
		}()
	}
	for r, cmd := range cmds {
		if code := exitOf(cmd); code != 0 {
			t.Fatalf("rank %d exited %d, want 0", r, code)
		}
	}

	drains.Wait()

	// And the jobs were real sorts: spot-check the first one.
	flat := readJobOutput(t, filepath.Join(dir, "job0.%d.f64"), p)
	if len(flat) != n*p {
		t.Errorf("job0 output %d records, want %d", len(flat), n*p)
	}
	if !slices.IsSorted(flat) {
		t.Error("job0 output not globally sorted")
	}
}
