package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh when the checkout is a git repository.
var commit = "unknown"

// metric is one measured number. Value summarises N samples taken in
// the run (their median, unless the metric says otherwise); Q1 and Q3
// are their quartiles.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// scaled multiplies the metric and its quartiles by f.
func (m metric) scaled(f float64) metric {
	m.Value, m.Q1, m.Q3 = m.Value*f, m.Q1*f, m.Q3*f
	return m
}

// workloadResult is everything measured on one workload: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one, or
// both once the suite has merged them.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (w *workloadResult) merge(o *workloadResult) {
	w.Correct = w.Correct && o.Correct
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	for k, m := range o.Metrics {
		w.Metrics[k] = m
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *resultFile) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine renders the one JSON object the benchmark contract wants
// as the last line of standard output.
func (w *workloadResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, make(map[string]value, len(w.Metrics))}
	for k, m := range w.Metrics {
		out.Metrics[k] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // floats and strings only; cannot fail
	}
	return string(b)
}

// print lists every metric by name and unit, with its spread.
func (w *workloadResult) print(name string) {
	names := make([]string, 0, len(w.Metrics))
	for k := range w.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d sorts verified, %d failed\n", name, w.Attempted-w.Failed, w.Failed)
	for _, k := range names {
		m := w.Metrics[k]
		fmt.Printf("  %-32s %14.6g %-6s n=%-3d q1=%.6g q3=%.6g\n", k, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
}

// environment records what the numbers were measured on.
type environment struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GOGC       int               `json:"gogc"`
	Caches     map[string]string `json:"cache_sizes"`
	// WorkingSets is the input size of each workload and of the probe
	// buffers, in bytes, to set against the cache sizes.
	WorkingSets map[string]int64 `json:"working_set_bytes"`
}

const pinnedGOGC = 100

// pinRuntime fixes the two runtime knobs the numbers depend on, whatever
// the caller's environment says: at most four threads run Go code (one
// per rank), and the collector keeps its default pacing.
func pinRuntime() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	debug.SetGCPercent(pinnedGOGC)
}

func currentEnv(quick bool) environment {
	env := environment{
		Commit:      commit,
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOGC:        pinnedGOGC,
		Caches:      cacheSizes(),
		WorkingSets: map[string]int64{"probe": int64(probeBytes(quick))},
	}
	for _, w := range workloads {
		env.WorkingSets[w.name] = w.bytes(quick)
	}
	return env
}

// cacheSizes reads cpu0's cache hierarchy from sysfs. On a VM the last
// level is the host's and is shared with other guests.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		if size := read("size"); size != "" {
			out["L"+read("level")+strings.ToLower(read("type"))] = size
		}
	}
	return out
}

// cpuTime is the user plus system time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark. Linux
// reports it in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
