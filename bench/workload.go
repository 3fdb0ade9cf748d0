package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

// The load shape every workload shares: a closed loop of one sort at a
// time on p = 4 ranks placed as two nodes of two cores.
var topo = cluster.Topology{Nodes: 2, CoresPerNode: 2}

const (
	stageBytes = 1 << 20
	// minSamples is the least number of timed sorts a run reports on,
	// however short --seconds is.
	minSamples = 10
	// setupRepeats is how many times a run sets up, so that setup_s is a
	// median and not one draw.
	setupRepeats = 5
	// minTraced is the least number of traced sorts, and of the untraced
	// ones they alternate with, in a --trace 1 run.
	minTraced = 3
	// quickDiv shrinks every workload for the smoke lane.
	quickDiv = 64
)

// spec describes one workload: the records, their generator and the
// switches that decide which paths of the sort it takes.
type spec[T any] struct {
	name    string
	perRank int // records per rank at full size
	gen     func(seed int64, n int) []T
	cd      codec.Codec[T]
	cmp     func(a, b T) int
	// order maps a record to its position in the input. Set on the
	// stable workload only, where equal keys must keep that order.
	order  func(T) uint64
	stable bool
	tcp    bool
	// spillMem, when positive, is the per-rank memory budget under which
	// the workload sorts a file shard through the spill tier.
	spillMem int64
}

func (s spec[T]) records(quick bool) int {
	if quick {
		return s.perRank / quickDiv
	}
	return s.perRank
}

func (s spec[T]) bytes(quick bool) int64 {
	return int64(topo.Size()) * int64(s.records(quick)) * int64(s.cd.Size())
}

// workloadEntry erases the record type so main can hold the workloads
// in one table.
type workloadEntry struct {
	name  string
	bytes func(quick bool) int64
	run   func(cfg config) (*workloadResult, error)
}

func entry[T any](s spec[T]) workloadEntry {
	return workloadEntry{
		name:  s.name,
		bytes: s.bytes,
		run:   func(cfg config) (*workloadResult, error) { return newJob(s, cfg).run() },
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// The workloads are the paper's datasets, each sized so that one sort
// takes a few hundred milliseconds on two cores. BENCHMARK.json and
// README.md say why each one exists.
var (
	uniformInproc = spec[float64]{
		name: "uniform_inproc", perRank: 1 << 20,
		gen: workload.Uniform, cd: codec.Float64{}, cmp: cmpFloat,
	}
	cosmoSkewInproc = spec[codec.Particle]{
		name: "cosmo_skew_inproc", perRank: 1 << 18,
		gen: workload.Cosmology, cd: codec.ParticleCodec{}, cmp: codec.CompareParticles,
	}
	ptfStableTCP = spec[codec.PTFRecord]{
		name: "ptf_stable_tcp", perRank: 1 << 20,
		gen: workload.PTF, cd: codec.PTFCodec{}, cmp: codec.ComparePTF,
		// workload.PTF numbers the records in the low half of ObjID.
		order:  func(r codec.PTFRecord) uint64 { return r.ObjID },
		stable: true, tcp: true,
	}
	uniformSpill = spec[float64]{
		name: "uniform_spill", perRank: 1 << 19,
		gen: workload.Uniform, cd: codec.Float64{}, cmp: cmpFloat,
		spillMem: 2 << 20,
	}

	workloads = []workloadEntry{
		entry(uniformInproc), entry(cosmoSkewInproc), entry(ptfStableTCP), entry(uniformSpill),
	}
)

func findWorkload(name string) (workloadEntry, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadEntry{}, false
}

// What rank 0 tells the ranks to do next.
const (
	doStop   byte = iota
	doWarm        // the set-up's warm-up sort: verified, not timed
	doPlain       // a timed sort with every observer off
	doTraced      // a timed sort with every observer on
)

// sample is one timed sort as rank 0 saw it.
type sample struct {
	wall, cpu time.Duration
	host      float64 // seconds the reference kernel took right after the sort
	rdfa      float64
	layers    map[string]float64 // traced sorts only
}

// job is one run of one workload. Rank goroutines share it: the fields
// below the first group are handed between ranks only across a barrier
// or a broadcast.
type job[T any] struct {
	spec[T]
	cfg config
	n   int // records per rank in this run
	dir string

	input []T // rank r owns input[r*n : (r+1)*n]
	want  checksum
	file  string // spill workload: the input as a record file

	// Written by rank 0 before the broadcast that starts a sort, read by
	// every rank after it.
	obs *observers
	// One slot per rank, written between the barriers of one sort.
	parts []partial[T]
	drain []bytes.Buffer
	wire  []*tcpcomm.Stats

	// Rank 0 only.
	sorts     int // sorts started in this launch
	began     time.Time
	setups    []float64
	setupHost []float64 // reference kernel seconds, one per set-up
	plain     []sample
	traced    []sample
	attempted int
	failed    int
	firstErr  error
	tracing   *tracePass
}

func newJob[T any](s spec[T], cfg config) *job[T] {
	p := topo.Size()
	return &job[T]{
		spec: s, cfg: cfg, n: s.records(cfg.quick),
		dir:   filepath.Join(cfg.outDir, s.name),
		parts: make([]partial[T], p),
		drain: make([]bytes.Buffer, p),
		wire:  make([]*tcpcomm.Stats, p),
	}
}

// budget is the per-rank memory budget of the spill workload. Quick
// mode shrinks it with the records, down to the least the tier's fixed
// buffers fit in.
func (j *job[T]) budget() int64 {
	if j.cfg.quick {
		return max(j.spillMem/quickDiv, 256<<10)
	}
	return j.spillMem
}

// generate makes the run's input from the seed and nothing else.
func (j *job[T]) generate() error {
	j.input = j.gen(j.cfg.seed, topo.Size()*j.n)
	if j.spillMem == 0 {
		return nil
	}
	j.file = filepath.Join(j.dir, "input.rec")
	return recordio.WriteFile(j.file, j.cd, j.input)
}

// options is what a rank passes to the sort: the defaults every
// workload shares, the workload's own switches, and the observers when
// the sort is a traced one.
func (j *job[T]) options(rank int) core.Options {
	opt := core.DefaultOptions()
	opt.StageBytes = stageBytes
	opt.Stable = j.stable
	if j.spillMem > 0 {
		b := j.budget()
		// Keep the two-chunk staging window at a quarter of the budget.
		opt.StageBytes = min(stageBytes, b/8)
		opt.Mem = memlimit.New(b)
		opt.Spill = &core.SpillOptions{Dir: j.dir}
		opt.Spill.FitBudget(b)
	}
	if j.obs != nil {
		j.obs.attach(&opt, rank)
	}
	return opt
}

// sortOnce is the timed call. The in-memory workloads return their
// block; the spill workload drains its block through Spilled.Stream
// into the rank's buffer, which block decodes after the clock stops.
func (j *job[T]) sortOnce(c *comm.Comm, work []T, opt core.Options) ([]T, error) {
	if j.spillMem == 0 {
		return core.Sort(c, work, j.cd, j.cmp, opt)
	}
	sp, err := core.SortFileShard(c, j.file, j.cd, j.cmp, opt)
	if err != nil {
		return nil, err
	}
	buf := &j.drain[c.Rank()]
	buf.Reset()
	t0 := time.Now()
	err = sp.Stream(buf)
	if opt.Timer != nil {
		// The lazy merge of the received runs is the sort's local
		// ordering; it only happens to run after SortFileShard returns.
		opt.Timer.Add(metrics.PhaseLocalOrdering, time.Since(t0))
	}
	return nil, errors.Join(err, sp.Remove())
}

func (j *job[T]) block(rank int, out []T) ([]T, error) {
	if j.spillMem == 0 {
		return out, nil
	}
	return codec.DecodeSlice(j.cd, j.drain[rank].Bytes())
}

// launch forms a warm world of p ranks over the workload's transport,
// runs fn on each and waits for all of them.
func (j *job[T]) launch(fn func(c *comm.Comm) error) error {
	if !j.tcp {
		return cluster.Run(topo, fn)
	}
	return launchTCP(func(c *comm.Comm) error {
		j.wire[c.Rank()] = c.Transport().(*tcpcomm.Transport).Stats()
		return fn(c)
	})
}

// launchTCP is cluster.Run over four tcpcomm transports on loopback.
func launchTCP(fn func(c *comm.Comm) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	registry := ln.Addr().String()
	ln.Close()

	p := topo.Size()
	errs := make([]error, p)
	trs := make([]*tcpcomm.Transport, p)
	var mu sync.Mutex
	// A rank that fails closes every transport, so that peers blocked on
	// it return instead of waiting out their receive timeout.
	closeAll := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			defer wg.Done()
			tr, err := tcpcomm.New(tcpcomm.Config{
				Rank: rank, Size: p, Node: rank / topo.CoresPerNode,
				Registry: registry, Timeout: 30 * time.Second,
				RecvTimeout: 60 * time.Second,
			})
			if err == nil {
				mu.Lock()
				trs[rank] = tr
				mu.Unlock()
				err = fn(comm.New(tr))
			}
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				closeAll()
			}
		}(r)
	}
	wg.Wait()
	closeAll()
	return errors.Join(errs...)
}

// run sets the workload up setupRepeats times, measures on the last
// world, and reports.
func (j *job[T]) run() (*workloadResult, error) {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(j.dir)
	repeats := setupRepeats
	if j.cfg.trace || j.cfg.quick {
		repeats = 1
	}
	if j.cfg.trace {
		j.tracing = newTracePass(j.name)
	}
	for k := 0; k < repeats; k++ {
		t0 := time.Now()
		if err := j.generate(); err != nil {
			return nil, err
		}
		generated := time.Since(t0)
		// The benchmark's own bookkeeping, so not part of set-up: the
		// set-up clock restarts after it, set back by the generation.
		j.want = sumRecords(j.input, j.cd)
		j.sorts = 0
		t0 = time.Now().Add(-generated)
		err := j.launch(func(c *comm.Comm) error { return j.rank(c, t0, k == repeats-1) })
		if err != nil {
			return nil, err
		}
	}
	res := &workloadResult{
		Correct: j.failed == 0, Attempted: j.attempted, Failed: j.failed,
		Metrics: map[string]metric{},
	}
	if j.cfg.trace {
		if err := j.layerMetrics(res.Metrics); err != nil {
			return nil, err
		}
	} else {
		j.endToEndMetrics(res.Metrics)
	}
	if j.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: verification failed: %v\n", j.name, j.firstErr)
	}
	return res, nil
}

// plan is rank 0's decision on what the world does next.
func (j *job[T]) plan(last bool) byte {
	if j.sorts == 0 {
		return doWarm
	}
	if !last {
		return doStop
	}
	spent := time.Since(j.began).Seconds()
	if !j.cfg.trace {
		need := minSamples
		if j.cfg.quick {
			need = 2
		}
		if len(j.plain) >= need && (j.cfg.quick || spent >= j.cfg.seconds) {
			return doStop
		}
		return doPlain
	}
	// A traced run spends half its time on sorts, alternating plain and
	// traced ones so both see the same machine, and the rest on probes.
	need := minTraced
	if j.cfg.quick {
		need = 2
	}
	if len(j.plain) == len(j.traced) {
		if len(j.traced) >= need && (j.cfg.quick || spent >= j.cfg.seconds/2) {
			return doStop
		}
		return doPlain
	}
	return doTraced
}

// rank is what each rank of the world runs: sorts on rank 0's word
// until it says stop. t0 is when this set-up began.
func (j *job[T]) rank(c *comm.Comm, t0 time.Time, last bool) error {
	me := c.Rank()
	var work []T
	if j.spillMem == 0 {
		work = make([]T, j.n)
	}
	for {
		var word []byte
		if me == 0 {
			do := j.plan(last)
			j.obs = nil
			if do == doTraced {
				j.obs = j.tracing.observe(len(j.traced), j.wire)
			}
			word = []byte{do}
		}
		word, err := c.Bcast(0, word)
		if err != nil {
			return err
		}
		do := word[0]
		if do == doStop {
			return nil
		}

		// A fresh copy of the unsorted input, outside the timed region.
		copy(work, j.input[me*j.n:])
		opt := j.options(me)
		if err := c.Barrier(); err != nil {
			return err
		}
		var start time.Time
		var cpu0 time.Duration
		if me == 0 {
			start, cpu0 = time.Now(), cpuTime()
		}
		span := j.obs.enter(&opt, me)
		out, err := j.sortOnce(c, work, opt)
		span.End(nil)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var s sample
		if me == 0 {
			s.wall, s.cpu = time.Since(start), cpuTime()-cpu0
			if do == doWarm {
				j.setups = append(j.setups, time.Since(t0).Seconds())
			}
		}

		// Every rank checks its own block; rank 0 joins the results.
		blk, err := j.block(me, out)
		if err != nil {
			return err
		}
		j.parts[me] = checkPart(blk, j.cd, j.cmp, j.order)
		if err := c.Barrier(); err != nil {
			return err
		}
		if me != 0 {
			continue
		}
		j.sorts++
		j.attempted++
		s.rdfa, err = combine(j.parts, j.want, j.cmp, j.order)
		if err != nil {
			j.failed++
			if j.firstErr == nil {
				j.firstErr = err
			}
		}
		if !j.cfg.trace {
			// The other ranks are idle, waiting for the next word.
			s.host = hostTime().Seconds()
		}
		switch do {
		case doWarm:
			j.setupHost = append(j.setupHost, s.host)
			j.began = time.Now()
		case doPlain:
			j.plain = append(j.plain, s)
		case doTraced:
			s.layers = j.obs.read(s.wall, j.wire)
			j.traced = append(j.traced, s)
		}
	}
}

// endToEndMetrics reports what a user of the sort would see, from the
// untraced timed sorts. The two timings report the quartile on their
// good side, not the median: what disturbs a sort on a shared host only
// ever slows it, and that quartile moves less with it than the median.
// All three times are then scaled to a quiet host; see host.go.
func (j *job[T]) endToEndMetrics(out map[string]metric) {
	gb := float64(j.bytes(j.cfg.quick)) / 1e9
	var mbps, cpu, rdfa, hosts []float64
	for _, s := range j.plain {
		mbps = append(mbps, gb*1e3/s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds()/gb)
		rdfa = append(rdfa, s.rdfa)
		hosts = append(hosts, s.host)
	}
	slow, slowSetup := slowdown(hosts), slowdown(j.setupHost)
	out["sort_mbps"] = summarise(mbps, "MB/s", 0.75).scaled(slow)
	out["cpu_s_per_gb"] = summarise(cpu, "s/GB", 0.25).scaled(1 / slow)
	out["rdfa"] = summarise(rdfa, "ratio", 0.5)
	out["peak_rss_mb"] = single(peakRSSMB(), "MB")
	out["setup_s"] = summarise(j.setups, "s", 0.5).scaled(1 / slowSetup)
	fmt.Printf("%s: reference kernel ran %.3fx its quiet time during the sorts, %.3fx during set-up\n",
		j.name, slow, slowSetup)
}
