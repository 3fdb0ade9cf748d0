// Command sdsbench regenerates the tables and figures of the SDS-Sort
// paper's evaluation on this machine.
//
// Usage:
//
//	sdsbench -exp fig7            # one experiment
//	sdsbench -exp fig5a,tab3      # several
//	sdsbench -exp all             # the whole evaluation
//	sdsbench -list                # what exists
//	sdsbench -exp all -quick      # small sizes, seconds instead of minutes
//
// Each experiment prints rows/series matching the corresponding paper
// artifact; EXPERIMENTS.md records the paper-vs-measured comparison.
// Experiments of one invocation share their runs: -exp fig9,fig10,tab4
// sorts each dataset once, and Table 4 prints those runs' RDFA.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdssort/internal/buildinfo"
	"sdssort/internal/experiments"
)

// writeCSV dumps each of the result's tables as <dir>/<id>-<n>.csv so
// the series can be plotted next to the paper's figures.
func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tbl := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", res.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tbl.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var (
		exp    = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		quick  = flag.Bool("quick", false, "shrink data sizes for a fast pass")
		seed   = flag.Int64("seed", 42, "workload seed")
		list   = flag.Bool("list", false, "list available experiments")
		csvDir = flag.String("csv", "", "also write each table as CSV into this directory")
		ver    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *ver {
		fmt.Println(buildinfo.String("sdsbench"))
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments (paper artifact — description):")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-9s %s\n", id, experiments.About(id))
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
			os.Exit(2)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Runs: new(experiments.Runs)}
	failed := 0
	for _, id := range ids {
		run, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		start := time.Now()
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(res.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: csv: %v\n", id, err)
				failed++
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
