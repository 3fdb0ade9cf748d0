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
// Every rank sorts its own shard of the input (recordio.ShardRange):
// loaded resident by default, or streamed through the out-of-core spill
// tier under -spill-dir and -algo external. Either way the rank blocks
// then stream in rank order through one sortedness check (-verify) into
// -out, which is committed by rename or, when it names something other
// than a regular file, written through. -stats prints the phase
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
		verify   = flag.Bool("verify", true, "check the rank-ordered output's order and record count as it streams out")
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
	// finishTrace runs after the sort and turns a latched trace write
	// error, or a close error, into a non-zero exit. (Failure paths
	// inside the sort exit via log.Fatal already — only the success path
	// needs this.)
	var tracer trace.Tracer
	finishTrace := func() {}
	if *trc != "" {
		jl, err := trace.CreateJSONL(*trc)
		if err != nil {
			log.Fatal(err)
		}
		tracer = jl
		finishTrace = func() {
			if err := jl.Close(); err != nil {
				log.Fatalf("trace: %v", err)
			}
		}
	}
	spill := external || *spillDir != ""
	if spill && !external && *algoName != "sds" {
		log.Fatalf("-spill-dir requires -algo sds or external (got %q)", *algoName)
	}
	sc := sortConfig{
		algo: *algoName, nodes: *nodes, cores: *cores, threads: 1, stable: *stable,
		tauM: *tauM, tauO: *tauO, tauS: *tauS, stage: *stage, mem: *memB,
		spill: spill, dir: *spillDir, chunk: *spillChunk,
		stats: *stats, verify: *verify, tracer: tracer,
	}
	if external {
		sc.nodes, sc.cores, sc.threads = 1, 1, *cores
	}
	var err error
	switch {
	case *typ == "f64":
		err = sortFile(*in, *out, codec.Float64{}, codec.CompareOrdered[float64], sc)
	case *typ == "ptf":
		err = sortFile(*in, *out, codec.PTFCodec{}, codec.ComparePTF, sc)
	case *typ == "cosmo":
		err = sortFile(*in, *out, codec.ParticleCodec{}, codec.CompareParticles, sc)
	case *typ == "csv" && (external || !spill):
		err = sortCSV(*in, *col, *out, sc)
	case spill:
		log.Fatalf("the out-of-core tier needs a file-backed record type (f64 | ptf | cosmo; csv with -algo external), not %q", *typ)
	default:
		log.Fatalf("unknown record type %q", *typ)
	}
	if err != nil {
		log.Fatal(err)
	}
	finishTrace()
}

// sortConfig bundles the knobs of one run.
type sortConfig struct {
	algo          string // the driver of a resident run
	nodes, cores  int    // the world: ranks per node
	threads       int    // sort goroutines per rank
	stable        bool
	tauM          int64
	tauO, tauS    int
	stage, mem    int64
	spill         bool // stream each shard through the out-of-core tier
	dir           string
	chunk         int
	stats, verify bool
	tracer        trace.Tracer
}

// block is one rank's share of the sorted output: resident, or spilled
// to run files and merged lazily on read (*core.Spilled).
type block interface {
	Records() int64
	Stream(w io.Writer) error
	Remove() error
}

// resident is a block held in memory.
type resident[T any] struct {
	recs []T
	cd   codec.Codec[T]
}

func (b resident[T]) Records() int64 { return int64(len(b.recs)) }
func (b resident[T]) Remove() error  { return nil }

func (b resident[T]) Stream(w io.Writer) error {
	rw := recordio.NewWriter(w, b.cd)
	if err := rw.Write(b.recs...); err != nil {
		return err
	}
	return rw.Flush()
}

// sortFile sorts the record file in on an in-process cluster. Every rank
// sorts its own shard of the file (recordio.ShardRange): loaded and
// handed to the -algo driver, or, with sc.spill, streamed through
// core.SortFileShard — sorted runs spill under sc.dir and the block is
// merged lazily on read, so with -mem set a fixed per-rank budget sorts
// inputs of any size. On a 1×1 world (-algo external) that is the
// classical external sort. The blocks then drain in rank order into
// out.
func sortFile[T any](in, out string, cd codec.Codec[T], cmp func(a, b T) int, sc sortConfig) error {
	// Sweep wreckage from a previous crashed invocation before spilling
	// new runs next to it.
	if sc.dir != "" {
		if err := extsort.RemoveStaleTemps(sc.dir); err != nil {
			return err
		}
	}
	topo := cluster.Topology{Nodes: sc.nodes, CoresPerNode: sc.cores}
	p := topo.Size()
	// One shared, atomic block of each kind across the ranks, like the
	// shared memory gauge: every driver routes its exchange through the
	// shared core path, so the zero-copy line below reflects what the
	// exchange actually did for any -algo, and the skew observation is
	// collective, so every rank agrees it is on.
	exch := &metrics.ExchangeStats{}
	spStats := &metrics.SpillStats{}
	selection := &metrics.AlgoStats{}
	skew := metrics.NewSkewStats()
	timers := make([]*metrics.PhaseTimer, p)
	gauges := make([]*memlimit.Gauge, p)
	for i := range timers {
		timers[i] = metrics.NewPhaseTimer()
		if sc.mem > 0 {
			gauges[i] = memlimit.New(sc.mem)
		}
	}
	var sp *core.SpillOptions
	var drv algo.Driver[T]
	if sc.spill {
		sp = &core.SpillOptions{Dir: sc.dir, ChunkRecords: sc.chunk, Stats: spStats}
		sp.FitBudget(sc.mem)
	} else {
		var err error
		if drv, err = algo.New[T](sc.algo); err != nil {
			return err
		}
	}
	start := time.Now()
	blocks, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) (block, error) {
		opt := algo.DefaultOptions()
		opt.Core.Stable = sc.stable
		opt.Core.Cores = sc.threads
		opt.Core.TauM = sc.tauM
		opt.Core.TauO = sc.tauO
		opt.Core.TauS = sc.tauS
		opt.Core.StageBytes = sc.stage
		opt.Core.Exchange = exch
		opt.Core.Timer = timers[c.Rank()]
		opt.Core.Trace = sc.tracer
		opt.Core.Mem = gauges[c.Rank()]
		opt.Core.Spill = sp
		opt.Core.Skew = skew
		opt.Core.Span = trace.Scope{Trace: "sdssort"}
		opt.Selection = selection
		if sp != nil {
			blk, err := core.SortFileShard(c, in, cd, cmp, opt.Core)
			return blk, err
		}
		local, err := recordio.ReadShard(in, cd, c.Rank(), p)
		if err != nil {
			return nil, err
		}
		sorted, err := drv.Sort(context.Background(), c, local, cd, cmp, opt)
		return resident[T]{sorted, cd}, err
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
	head := fmt.Sprintf("spill-sorted %d records", total)
	if !sc.spill {
		// Under -algo auto the profile resolved a concrete driver;
		// report what actually ran.
		ran := sc.algo
		if sc.algo == algo.NameAuto {
			for _, name := range algo.Names() {
				if selection.Count(name) > 0 {
					ran = sc.algo + "→" + name
					break
				}
			}
		}
		head = fmt.Sprintf("sorted %d records with %s", total, ran)
	}
	fmt.Printf("%s on %d×%d ranks in %v (%s)\n", head, sc.nodes, sc.cores, elapsed.Round(time.Microsecond),
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
		if sc.spill {
			fmt.Printf("  %s\n", spStats)
		} else {
			zc := "no"
			if exch.ZeroCopyUsed() {
				zc = "yes"
			}
			fmt.Printf("  zero-copy: %s (codec eligible: %v)\n", zc, codec.IsZeroCopy(cd))
		}
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
func drainBlocks[T any](blocks []block, out string, verify bool, cd codec.Codec[T], cmp func(a, b T) int) error {
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

// sortCSV sorts a CSV column: both routes read record files, so the
// parsed keys go through one, next to the spill runs under -spill-dir.
func sortCSV(in string, col int, out string, sc sortConfig) error {
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
	return sortFile(f.Name(), out, codec.Float64{}, codec.CompareOrdered[float64], sc)
}

// orderChecker verifies global sortedness of a recordio stream flowing
// through it as an io.Writer: every record is at least its predecessor,
// across write and block boundaries. It decodes the records where they
// lie and holds at most one record split across two writes.
type orderChecker[T any] struct {
	cd   codec.Codec[T]
	cmp  func(a, b T) int
	buf  []byte // the head of a record split across writes
	prev T
	n    int64
	err  error
}

func (oc *orderChecker[T]) Write(p []byte) (int, error) {
	n, size := len(p), oc.cd.Size()
	if len(oc.buf) > 0 && oc.err == nil {
		k := min(size-len(oc.buf), len(p))
		oc.buf, p = append(oc.buf, p[:k]...), p[k:]
		if len(oc.buf) == size {
			oc.next(oc.buf)
			oc.buf = oc.buf[:0]
		}
	}
	for ; len(p) >= size && oc.err == nil; p = p[size:] {
		oc.next(p[:size])
	}
	if oc.err != nil {
		return 0, oc.err
	}
	oc.buf = append(oc.buf, p...)
	return n, nil
}

func (oc *orderChecker[T]) next(wire []byte) {
	rec := oc.cd.Unmarshal(wire)
	if oc.n > 0 && oc.cmp(oc.prev, rec) > 0 {
		oc.err = fmt.Errorf("verify: output not sorted at record %d", oc.n)
	}
	oc.prev = rec
	oc.n++
}
