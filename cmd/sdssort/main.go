// Command sdssort sorts a binary record file on an in-process cluster
// using SDS-Sort (or one of the baselines) and writes the sorted file.
//
// Usage:
//
//	sdssort -in zipf.f64 -out sorted.f64 -nodes 4 -cores 2
//	sdssort -in ptf.rec  -type ptf -stable -out sorted.rec
//	sdssort -in zipf.f64 -algo hyksort -out sorted.f64
//	sdssort -in huge.f64 -algo external -out sorted.f64
//
// The input is split evenly across the ranks, sorted collectively, and
// the rank outputs are concatenated in order. -stats prints the phase
// breakdown and the RDFA load-balance metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"sdssort/internal/algo"
	"sdssort/internal/buildinfo"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/extsort"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/recordio"
	"sdssort/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdssort: ")
	var (
		in       = flag.String("in", "", "input record file (required)")
		out      = flag.String("out", "", "output file (omit to discard)")
		typ      = flag.String("type", "f64", "record type: f64 | ptf | cosmo | csv")
		col      = flag.Int("col", 0, "CSV column holding the numeric key (csv type only)")
		algoName = flag.String("algo", "sds", "algorithm: "+strings.Join(algo.Names(), " | ")+" | external")
		nodes    = flag.Int("nodes", 2, "simulated nodes")
		cores    = flag.Int("cores", 2, "ranks per node (sort goroutines with -algo external)")
		stable   = flag.Bool("stable", false, "stable sort (sds only)")
		tauM     = flag.Int64("taum", core.DefaultOptions().TauM, "node-merge threshold τm (bytes)")
		tauO     = flag.Int("tauo", core.DefaultOptions().TauO, "overlap threshold τo (ranks)")
		tauS     = flag.Int("taus", core.DefaultOptions().TauS, "merge-vs-sort threshold τs (ranks)")
		stage    = flag.Int64("stage", 0, "staging window for the data exchange in bytes (0 = one chunk per peer)")
		stats    = flag.Bool("stats", true, "print phase breakdown and RDFA")
		verify   = flag.Bool("verify", true, "run the distributed sortedness check after the sort")
		trc      = flag.String("trace", "", "write a JSONL event trace to this file")

		memB       = flag.Int64("mem", 0, "per-rank memory budget in bytes; with -spill-dir a fixed budget sorts inputs of any size (0 = unlimited)")
		spillDir   = flag.String("spill-dir", "", "enable the out-of-core spill tier: stream the input and spill sorted runs here instead of holding the shard resident (sds and external only; external defaults to the OS temp dir)")
		spillChunk = flag.Int("spill-chunk", 0, "records per streamed in-memory run with -spill-dir or -algo external (0 = derive from -mem, 1<<20 without)")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("sdssort"))
		return
	}
	if *in == "" {
		log.Fatal("-in input file is required")
	}
	// external is not a driver but a shape of the spill tier: the whole
	// file as the one shard of a one-rank world, never resident.
	external := *algoName == "external"
	if !external {
		// Validate the driver name against the registry up front so a typo
		// prints the available names instead of failing mid-run.
		info, ok := algo.Lookup(*algoName)
		if !ok {
			log.Fatal(&algo.UnknownError{Name: *algoName})
		}
		if *stable && !info.Caps.Stable {
			log.Fatalf("-stable requires a stable-capable algorithm (%q is not; use sds or auto)", *algoName)
		}
	}
	// The trace file is finalised deliberately: JSONL latches its first
	// write error, so without checking Err() a full disk would silently
	// truncate the trace while the command exits 0. finishTrace runs
	// after the sort and turns either a latched write error or a close
	// error into a non-zero exit. (Failure paths inside the sort exit
	// via log.Fatal already — only the success path needs this.)
	var tracer trace.Tracer
	finishTrace := func() {}
	if *trc != "" {
		f, err := os.Create(*trc)
		if err != nil {
			log.Fatal(err)
		}
		jl := trace.NewJSONL(f)
		tracer = jl
		name := *trc
		finishTrace = func() {
			if err := jl.Err(); err != nil {
				log.Fatalf("trace: write failed, %s is incomplete: %v", name, err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("trace: close %s: %v", name, err)
			}
		}
	}
	if external || *spillDir != "" {
		if !external && *algoName != "sds" {
			log.Fatalf("-spill-dir requires -algo sds or external (got %q)", *algoName)
		}
		sc := spillConfig{
			nodes: *nodes, cores: *cores, threads: 1, stable: *stable,
			stage: *stage, mem: *memB, dir: *spillDir, chunk: *spillChunk,
			stats: *stats, verify: *verify, tracer: tracer,
		}
		if external {
			sc.nodes, sc.cores, sc.threads = 1, 1, *cores
		}
		var err error
		switch {
		case *typ == "f64":
			err = runSpilled(*in, *out, codec.Float64{}, cmpOrdered[float64], sc)
		case *typ == "ptf":
			err = runSpilled(*in, *out, codec.PTFCodec{}, codec.ComparePTF, sc)
		case *typ == "cosmo":
			err = runSpilled(*in, *out, codec.ParticleCodec{}, codec.CompareParticles, sc)
		case *typ == "csv" && external:
			err = runSpilledCSV(*in, *col, *out, sc)
		default:
			log.Fatalf("the out-of-core tier needs a file-backed record type (f64 | ptf | cosmo; csv with -algo external), not %q", *typ)
		}
		if err != nil {
			log.Fatal(err)
		}
		finishTrace()
		return
	}
	switch *typ {
	case "f64":
		run(*in, *out, codec.Float64{}, cmpOrdered[float64], *algoName, *nodes, *cores, *stable, *tauM, *tauO, *tauS, *stage, *memB, *stats, *verify, tracer)
	case "csv":
		keys, err := recordio.ReadCSVColumn(*in, *col)
		if err != nil {
			log.Fatal(err)
		}
		runRecords(keys, *out, codec.Float64{}, cmpOrdered[float64], *algoName, *nodes, *cores, *stable, *tauM, *tauO, *tauS, *stage, *memB, *stats, *verify, tracer)
	case "ptf":
		run(*in, *out, codec.PTFCodec{}, codec.ComparePTF, *algoName, *nodes, *cores, *stable, *tauM, *tauO, *tauS, *stage, *memB, *stats, *verify, tracer)
	case "cosmo":
		run(*in, *out, codec.ParticleCodec{}, codec.CompareParticles, *algoName, *nodes, *cores, *stable, *tauM, *tauO, *tauS, *stage, *memB, *stats, *verify, tracer)
	default:
		log.Fatalf("unknown record type %q", *typ)
	}
	finishTrace()
}

func cmpOrdered[T float64 | int64 | uint64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func run[T any](in, out string, cd codec.Codec[T], cmp func(a, b T) int,
	algoName string, nodes, cores int, stable bool, tauM int64, tauO, tauS int, stage, mem int64, stats, verify bool, tracer trace.Tracer) {

	records, err := recordio.ReadFile(in, cd)
	if err != nil {
		log.Fatal(err)
	}
	runRecords(records, out, cd, cmp, algoName, nodes, cores, stable, tauM, tauO, tauS, stage, mem, stats, verify, tracer)
}

// runRecords sorts already-loaded records on an in-process cluster,
// dispatching through the algorithm driver registry.
func runRecords[T any](records []T, out string, cd codec.Codec[T], cmp func(a, b T) int,
	algoName string, nodes, cores int, stable bool, tauM int64, tauO, tauS int, stage, mem int64, stats, verify bool, tracer trace.Tracer) {

	topo := cluster.Topology{Nodes: nodes, CoresPerNode: cores}
	p := topo.Size()
	per := (len(records) + p - 1) / p
	parts := make([][]T, p)
	for r := 0; r < p; r++ {
		lo := r * per
		hi := min(lo+per, len(records))
		if lo > len(records) {
			lo = len(records)
		}
		parts[r] = records[lo:hi]
	}

	timers := make([]*metrics.PhaseTimer, p)
	for i := range timers {
		timers[i] = metrics.NewPhaseTimer()
	}
	// One shared, atomic stats block across the ranks, like the shared
	// memory gauge. Every driver routes its exchange through the shared
	// core path, so the zero-copy line below reflects what the exchange
	// actually did for any -algo.
	exch := &metrics.ExchangeStats{}
	selection := &metrics.AlgoStats{}
	// Shared across the in-process ranks, like the exchange stats: the
	// skew observation is collective, and one process-wide block means
	// every rank agrees it is on.
	skew := metrics.NewSkewStats()
	var gauges []*memlimit.Gauge
	if mem > 0 {
		gauges = make([]*memlimit.Gauge, p)
		for i := range gauges {
			gauges[i] = memlimit.New(mem)
		}
	}
	drv, err := algo.New[T](algoName)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	outputs, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]T, error) {
		local := append([]T(nil), parts[c.Rank()]...)
		aopt := algo.DefaultOptions()
		aopt.Core.Stable = stable
		aopt.Core.TauM = tauM
		aopt.Core.TauO = tauO
		aopt.Core.TauS = tauS
		aopt.Core.StageBytes = stage
		aopt.Core.Exchange = exch
		aopt.Core.Timer = timers[c.Rank()]
		aopt.Core.Trace = tracer
		aopt.Core.Skew = skew
		aopt.Core.Span = trace.Scope{Trace: "sdssort"}
		if gauges != nil {
			aopt.Core.Mem = gauges[c.Rank()]
		}
		aopt.Selection = selection
		sorted, err := drv.Sort(context.Background(), c, local, cd, cmp, aopt)
		if err != nil {
			return nil, err
		}
		if verify {
			if err := core.Verify(c, sorted, cd, cmp); err != nil {
				return nil, err
			}
		}
		return sorted, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	total := 0
	loads := make([]int, p)
	for r, part := range outputs {
		loads[r] = len(part)
		total += len(part)
	}
	// Under -algo auto the profile resolved a concrete driver; report
	// what actually ran.
	ran := algoName
	if algoName == algo.NameAuto {
		for _, name := range algo.Names() {
			if selection.Count(name) > 0 {
				ran = algoName + "→" + name
				break
			}
		}
	}
	fmt.Printf("sorted %d records with %s on %d×%d ranks in %v (%s)\n",
		total, ran, nodes, cores, elapsed.Round(time.Microsecond),
		metrics.FormatThroughput(metrics.Throughput(int64(total)*int64(cd.Size()), elapsed)))
	if stats {
		fmt.Printf("RDFA: %s\n", metrics.FmtRDFA(metrics.RDFA(loads)))
		merged := metrics.MergeMax(timers)
		for _, ph := range metrics.Phases() {
			fmt.Printf("  %-16s %s\n", ph.String(), metrics.FmtDur(merged[ph]))
		}
		if exch != nil {
			fmt.Printf("  %s\n", exch)
			zc := "no"
			if exch.ZeroCopyUsed() {
				zc = "yes"
			}
			fmt.Printf("  zero-copy: %s (codec eligible: %v)\n", zc, codec.IsZeroCopy(cd))
		}
		if gauges != nil {
			var peak int64
			for _, g := range gauges {
				peak = max(peak, g.Peak())
			}
			fmt.Printf("  mem peak: %d of %d bytes per rank\n", peak, mem)
		}
	}
	if out != "" {
		var flat []T
		for _, part := range outputs {
			flat = append(flat, part...)
		}
		if err := recordio.WriteFile(out, cd, flat); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

// spillConfig bundles the knobs of the out-of-core path.
type spillConfig struct {
	nodes, cores  int // the world: ranks per node
	threads       int // sort goroutines per rank
	stable        bool
	stage, mem    int64
	dir           string
	chunk         int
	stats, verify bool
	tracer        trace.Tracer
}

// runSpilled is the out-of-core driver: the input file is never loaded —
// each rank streams its shard through core.SortFileShard, spilling
// sorted runs under sc.dir, and the resulting blocks are lazily merged
// straight into the output file. With -mem set, every rank runs under a
// hard per-rank budget, so a fixed-memory invocation sorts inputs of
// any size. On a 1×1 world (-algo external) there is no exchange and
// this is the classical external sort.
func runSpilled[T any](in, out string, cd codec.Codec[T], cmp func(a, b T) int, sc spillConfig) error {
	// Sweep wreckage from a previous crashed invocation before spilling
	// new runs next to it.
	if sc.dir != "" {
		if err := extsort.RemoveStaleTemps(sc.dir); err != nil {
			return err
		}
	}
	topo := cluster.Topology{Nodes: sc.nodes, CoresPerNode: sc.cores}
	p := topo.Size()
	spStats := &metrics.SpillStats{}
	exch := &metrics.ExchangeStats{}
	timers := make([]*metrics.PhaseTimer, p)
	gauges := make([]*memlimit.Gauge, p)
	for i := range timers {
		timers[i] = metrics.NewPhaseTimer()
		if sc.mem > 0 {
			gauges[i] = memlimit.New(sc.mem)
		}
	}
	sp := &core.SpillOptions{Dir: sc.dir, ChunkRecords: sc.chunk, Stats: spStats}
	sp.FitBudget(sc.mem)
	skew := metrics.NewSkewStats()
	start := time.Now()
	blocks, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) (*core.Spilled[T], error) {
		opt := core.DefaultOptions()
		opt.Stable = sc.stable
		opt.Cores = sc.threads
		opt.StageBytes = sc.stage
		opt.Exchange = exch
		opt.Timer = timers[c.Rank()]
		opt.Trace = sc.tracer
		opt.Mem = gauges[c.Rank()]
		opt.Spill = sp
		opt.Skew = skew
		opt.Span = trace.Scope{Trace: "sdssort"}
		return core.SortFileShard(c, in, cd, cmp, opt)
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	defer func() {
		for _, b := range blocks {
			b.Remove()
		}
	}()

	var total int64
	loads := make([]int, p)
	for r, b := range blocks {
		loads[r] = int(b.Records())
		total += b.Records()
	}
	fmt.Printf("spill-sorted %d records on %d×%d ranks in %v (%s)\n",
		total, sc.nodes, sc.cores, elapsed.Round(time.Microsecond),
		metrics.FormatThroughput(metrics.Throughput(total*int64(cd.Size()), elapsed)))
	if out != "" || sc.verify {
		if err := drainBlocks(blocks, out, sc.verify, cd, cmp); err != nil {
			return err
		}
	}
	// After the drain: on one rank the output merge is all the merging
	// there is, and everywhere its cursors count towards the peak.
	if sc.stats {
		fmt.Printf("RDFA: %s\n", metrics.FmtRDFA(metrics.RDFA(loads)))
		merged := metrics.MergeMax(timers)
		for _, ph := range metrics.Phases() {
			fmt.Printf("  %-16s %s\n", ph.String(), metrics.FmtDur(merged[ph]))
		}
		fmt.Printf("  %s\n", exch)
		fmt.Printf("  %s\n", spStats)
		if sc.mem > 0 {
			var peak int64
			for _, g := range gauges {
				peak = max(peak, g.Peak())
			}
			fmt.Printf("  mem peak: %d of %d bytes per rank\n", peak, sc.mem)
		}
	}
	return nil
}

// drainBlocks streams the blocks, in rank order, through a sortedness
// checker and (when out is named) into the tier's file writer:
// committed by rename, so a failed or killed run never leaves a
// truncated output behind, or written in place when the destination is
// /dev/null or a pipe.
func drainBlocks[T any](blocks []*core.Spilled[T], out string, verify bool, cd codec.Codec[T], cmp func(a, b T) int) error {
	check := &orderChecker[T]{cd: cd, cmp: cmp}
	var dst *extsort.File
	var w io.Writer = check
	if out != "" {
		var err error
		if dst, err = extsort.CreateFile(out, 0); err != nil {
			return err
		}
		defer dst.Abort()
		if w = dst; verify {
			w = io.MultiWriter(dst, check)
		}
	}
	var total int64
	for _, b := range blocks {
		if err := b.Stream(w); err != nil {
			return err
		}
		total += b.Records()
	}
	if verify {
		if check.err != nil {
			return check.err
		}
		if check.n != total {
			return fmt.Errorf("verify: streamed %d records, expected %d", check.n, total)
		}
		fmt.Printf("verified: output globally sorted (%d records)\n", check.n)
	}
	if dst != nil {
		if err := dst.Commit(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// runSpilledCSV is runSpilled for a CSV column: the tier reads record
// files, so the parsed keys go through one, next to the spill runs.
func runSpilledCSV(in string, col int, out string, sc spillConfig) error {
	keys, err := recordio.ReadCSVColumn(in, col)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(sc.dir, "sdssort-keys-*")
	if err != nil {
		return err
	}
	f.Close()
	defer os.Remove(f.Name())
	if err := recordio.WriteFile(f.Name(), codec.Float64{}, keys); err != nil {
		return err
	}
	return runSpilled(f.Name(), out, codec.Float64{}, cmpOrdered[float64], sc)
}

// orderChecker verifies global sortedness of a recordio stream flowing
// through it as an io.Writer, without holding more than one partial
// record — the streaming counterpart of core.Verify for the spilled
// path, where the output never exists as a slice.
type orderChecker[T any] struct {
	cd   codec.Codec[T]
	cmp  func(a, b T) int
	buf  []byte
	prev T
	n    int64
	err  error
}

func (oc *orderChecker[T]) Write(p []byte) (int, error) {
	if oc.err != nil {
		return 0, oc.err
	}
	oc.buf = append(oc.buf, p...)
	size := oc.cd.Size()
	i := 0
	for ; i+size <= len(oc.buf); i += size {
		rec := oc.cd.Unmarshal(oc.buf[i : i+size])
		if oc.n > 0 && oc.cmp(oc.prev, rec) > 0 {
			oc.err = fmt.Errorf("verify: output not sorted at record %d", oc.n)
			return 0, oc.err
		}
		oc.prev = rec
		oc.n++
	}
	oc.buf = oc.buf[:copy(oc.buf, oc.buf[i:])]
	return len(p), nil
}
