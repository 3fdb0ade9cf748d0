// Command bench is the repository's benchmark: end-to-end sort metrics
// on four workloads, and per-layer metrics from a traced pass and from
// isolated layer probes. README.md says how to read it; BENCHMARK.json
// at the repository root declares every name it prints.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	bench --seed N --out result.json                      every workload, both passes
//	bench --compare a.json b.json                         judge b against a
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// config is one invocation's settings. Only seed reaches the input
// generators; nothing else changes what is sorted.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string // scratch files, spill runs and the Chrome traces
	out      string // result file, when wanted
}

func main() {
	var cfg config
	var trace int
	var compare bool
	var manifest string
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload and print the contract's JSON line; empty runs them all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generators")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, observers off; 1: per-layer metrics from traced sorts and layer probes")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke lane: every workload at 1/64 size, two sorts, 1 MiB probes")
	flag.StringVar(&cfg.outDir, "outdir", "bench/out", "directory for scratch files and traces")
	flag.StringVar(&cfg.out, "out", "", "write the result, with quartiles and environment, to this file")
	flag.BoolVar(&compare, "compare", false, "compare two result files: bench --compare a.json b.json")
	flag.StringVar(&manifest, "manifest", "BENCHMARK.json", "where --compare reads each metric's direction and bound")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench --compare a.json b.json")
			os.Exit(2)
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, manifest, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case cfg.workload != "":
		err = runOne(cfg)
	default:
		err = runSuite(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs one pass over one workload in this process.
func measure(cfg config) (*resultFile, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	pinRuntime()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	return &resultFile{
		Env: currentEnv(cfg.quick), Seed: cfg.seed,
		Workloads: map[string]*workloadResult{w.name: res},
	}, nil
}

// runOne is the contract's entry point: one workload, one pass, and the
// result as the last line of standard output. A sort that failed its
// verification is reported in that line and in the exit code.
func runOne(cfg config) error {
	rf, err := measure(cfg)
	if err != nil {
		return err
	}
	if cfg.out != "" {
		if err := rf.write(cfg.out); err != nil {
			return err
		}
	}
	res := rf.Workloads[cfg.workload]
	res.print(cfg.workload)
	fmt.Println(res.contractLine())
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d sorts failed verification", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// runSuite runs every workload, each pass in a child process of its
// own so that peak RSS, the collector's state and the page cache of one
// do not leak into the next, and merges what they report.
func runSuite(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := &resultFile{Seed: cfg.seed, Workloads: map[string]*workloadResult{}}
	var failed error
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(cfg.outDir, fmt.Sprintf("%s-trace%d.json", w.name, trace))
			args := []string{
				"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(trace),
				"--outdir", cfg.outDir, "--out", part,
			}
			if cfg.quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil && failed == nil {
				failed = fmt.Errorf("%s --trace %d: %w", w.name, trace, err)
			}
			rf, err := readResult(part)
			if err != nil {
				// The child died before it had a result to write.
				return errors.Join(failed, err)
			}
			os.Remove(part)
			all.Env = rf.Env
			if have := all.Workloads[w.name]; have != nil {
				have.merge(rf.Workloads[w.name])
			} else {
				all.Workloads[w.name] = rf.Workloads[w.name]
			}
		}
	}
	if cfg.out != "" {
		if err := all.write(cfg.out); err != nil {
			return err
		}
	}
	return failed
}
