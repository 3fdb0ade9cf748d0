// Command sdstrace summarises a JSONL event trace produced by
// cmd/sdssort -trace (or sdssort.TraceJSON). It reads the run's span
// tree and prints one report: event counts per kind, per-rank exchange
// volumes with the observed imbalance, how the sorts terminated and
// whether skew-aware duplicate splitting engaged, then — when the trace
// holds a "sort" root span — the critical path: the slowest rank of
// each phase.
//
// Multiple trace files — one per rank or per sdsnode process — are
// merged into a single timeline before analysis. When every event
// carries a wall-clock stamp and the trace holds clock.offset events
// (multi-process runs emit them at world formation), the merge and the
// chrome export are clock-aligned across processes.
//
//	sdssort -in zipf.f64 -trace run.jsonl
//	sdstrace run.jsonl
//	sdstrace rank0.jsonl rank1.jsonl rank2.jsonl
//	sdstrace -format chrome run.jsonl > timeline.json   # Perfetto / chrome://tracing
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"sdssort/internal/buildinfo"
	"sdssort/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdstrace: ")
	format := flag.String("format", "summary", "output format: summary | chrome (Perfetto/chrome://tracing JSON)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("sdstrace"))
		return
	}
	if flag.NArg() < 1 {
		log.Fatal("usage: sdstrace [-format chrome] <trace.jsonl> [more.jsonl ...]")
	}
	var events []trace.Event
	for _, name := range flag.Args() {
		part, err := readFile(name)
		if err != nil {
			log.Fatal(err)
		}
		events = append(events, part...)
	}
	if flag.NArg() > 1 {
		mergeTimelines(events)
	}
	switch *format {
	case "chrome":
		out, err := trace.ChromeTrace(events)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(out)
		fmt.Println()
	case "summary":
		fmt.Print(trace.Analyze(events).Render())
		if cp, ok := trace.CriticalPath(events); ok && cp.RootName == "sort" {
			fmt.Print(cp.Render())
		}
	default:
		log.Fatalf("unknown -format %q (want summary or chrome)", *format)
	}
}

// mergeTimelines interleaves per-process traces into one timeline.
// Per-process elapsed clocks each start at their own zero, so when
// every event carries a wall-clock stamp the merge orders by offset-
// corrected wall time (clock.offset events, emitted at world formation,
// project each process onto rank 0's clock); otherwise it falls back to
// raw elapsed time, preserving each file's internal order among ties.
func mergeTimelines(events []trace.Event) {
	useUnix := true
	for _, e := range events {
		if e.UnixUS == 0 {
			useUnix = false
			break
		}
	}
	if useUnix {
		offs := trace.ClockOffsets(events)
		sort.SliceStable(events, func(i, j int) bool {
			return events[i].UnixUS-offs[events[i].Rank] < events[j].UnixUS-offs[events[j].Rank]
		})
		return
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ElapsedUS < events[j].ElapsedUS
	})
}

func readFile(name string) ([]trace.Event, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return events, nil
}
