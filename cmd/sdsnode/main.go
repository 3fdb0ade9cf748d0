// Command sdsnode runs one rank of a genuinely distributed SDS-Sort
// over the TCP transport. Start one process per rank; rank 0 also
// serves the bootstrap registry.
//
// Example, 4 ranks on one machine (run in 4 shells or with &):
//
//	sdsnode -rank 0 -size 4 -registry 127.0.0.1:7777 -n 100000 &
//	sdsnode -rank 1 -size 4 -registry 127.0.0.1:7777 -n 100000 &
//	sdsnode -rank 2 -size 4 -registry 127.0.0.1:7777 -n 100000 &
//	sdsnode -rank 3 -size 4 -registry 127.0.0.1:7777 -n 100000
//
// Each rank either generates its shard (-workload) or reads it from a
// file (-in). The sorted shard can be written with -out; the run's
// timing and final load are printed either way.
//
// With -serve the process becomes a persistent job server instead of
// exiting after one sort: the already-registered TCP world is kept
// warm and a stream of job specs — one JSON object per line, from a
// -jobs manifest file or stdin — runs on it back to back, each job on
// its own job-scoped communicator ("world/job0", "world/job1", ...).
// Every rank must be given the identical job stream. No re-dial, no
// handshake, no re-registration happens between jobs; that is the
// point. See internal/NodeJob for the spec fields.
//
// Exit codes form a contract an external supervisor can act on:
//
//	0  success (in -serve mode: every job succeeded)
//	1  local error (bad input file, sort failure, write failure; in
//	   -serve mode: at least one job failed but the stream finished)
//	2  usage error (bad flags or a bad job manifest)
//	3  a peer rank was lost (retry budget exhausted) — restartable
//	4  -job-deadline exceeded
//	5  degraded success: with -allow-shrink, the sort lost ranks but
//	   finished on the survivors — output is complete and globally
//	   sorted, the world is just smaller than launched
//
// -job-deadline applies per job: in one-shot mode the single sort IS
// the job, and in -serve mode the clock restarts for every job in the
// stream (a job spec may override it with its own "deadline"). When a
// deadline fires the whole process still exits with code 4 — the rank
// is wedged mid-collective and cannot rejoin the next job — so any
// remaining jobs in the stream are abandoned, and the peers observe
// the loss as exit 3. Supervisors should treat 4 in -serve mode as
// "restart the world, resubmit the unfinished tail of the stream".
//
// With -ckpt-dir set (one-shot mode only), each rank snapshots its data
// at the phase boundaries. After a failure (exit 3), relaunch every
// rank with the same -ckpt-dir and -epoch incremented; rank 0's -epoch
// is authoritative and is adopted by the other ranks at registration,
// so only the coordinator's flag strictly matters. The relaunched world
// agrees on the latest globally consistent checkpoint cut and resumes
// from it instead of re-sorting from scratch.
//
// With -allow-shrink additionally set (requires -ckpt-dir, one-shot
// mode), losing a peer does not end the run: the survivors detect who
// died, re-form a smaller world over the live fabric, redistribute the
// dead rank's checkpointed shards among themselves, and finish the sort
// from the last consistent cut, exiting 5 instead of 3. Pair it with a
// finite -recv-timeout so a survivor blocked on the dead rank fails out
// of the sort instead of waiting forever. If the shrink itself cannot
// proceed (no cut, fewer than two survivors, or a second loss while
// shrinking) the process exits 3 and the ordinary relaunch contract
// applies. See shrink.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sdssort/internal/algo"
	"sdssort/internal/buildinfo"
	"sdssort/internal/checkpoint"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/extsort"
	"sdssort/internal/faultnet"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/recordio"
	"sdssort/internal/telemetry"
	"sdssort/internal/trace"
	"sdssort/internal/workload"
)

// Exit codes: the supervisor contract. Keep in sync with the package
// comment and docs/INTERNALS.md.
const (
	exitOK         = 0
	exitLocalError = 1
	exitUsage      = 2
	exitPeerLost   = 3
	exitDeadline   = 4
	exitDegraded   = 5
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// exitCode classifies an error into the exit-code contract.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	if _, ok := comm.PeerLost(err); ok {
		return exitPeerLost
	}
	return exitLocalError
}

// jobParams is one job's resolved parameters, from flags (one-shot) or
// from a NodeJob spec merged over the flag defaults (-serve).
type jobParams struct {
	name     string
	workload string
	alpha    float64
	n        int
	seed     int64
	in, out  string
	stable   bool
	stage    int64
	algo     string
}

// withSpec overlays a job spec on the flag defaults for one rank.
func (p jobParams) withSpec(jb NodeJob, rank int) jobParams {
	p.name = jb.Name
	if jb.Workload != "" {
		p.workload = jb.Workload
	}
	if jb.Alpha != 0 {
		p.alpha = jb.Alpha
	}
	if jb.N > 0 {
		p.n = jb.N
	}
	if jb.Seed != 0 {
		p.seed = jb.Seed
	}
	p.in = jb.In
	p.out = jb.OutPath(rank)
	p.stable = p.stable || jb.Stable
	if jb.Stage > 0 {
		p.stage = jb.Stage
	}
	if jb.Algo != "" {
		p.algo = jb.Algo
	}
	return p
}

// checkAlgo validates one job's driver choice against the registry and
// its capability gates, so a bad manifest fails before the fabric boots.
func (p jobParams) checkAlgo(ckpt bool) error {
	info, ok := algo.Lookup(p.algo)
	if !ok {
		return &algo.UnknownError{Name: p.algo}
	}
	if p.stable && !info.Caps.Stable {
		return fmt.Errorf("driver %q does not support -stable (only: sds)", p.algo)
	}
	if ckpt && !info.Caps.Checkpoint {
		return fmt.Errorf("driver %q does not support -ckpt-dir (only: sds)", p.algo)
	}
	return nil
}

// nodeEnv carries the per-process observability plumbing every job of
// this rank shares: the trace sinks, the exported memory gauge and
// exchange stats, and the node-level job counters.
type nodeEnv struct {
	tracer trace.Tracer
	ring   *trace.Ring // feeds /debug/trace and /debug/spans; nil without -telemetry-addr
	gauge  *memlimit.Gauge
	exch   *metrics.ExchangeStats

	// skew accrues the per-phase load-imbalance diagnostics every sort
	// of this rank observes, exported as the sds_phase_imbalance_* and
	// sds_phase_straggler_total series. Always non-nil: the observation
	// is collective, and every sdsnode wires it, so the world agrees.
	skew *metrics.SkewStats

	// algoStats counts the resolved driver of every sort (a job under
	// -algo auto increments the profile's choice), exported as
	// sds_algo_selected_total.
	algoStats *metrics.AlgoStats

	// Out-of-core spill tier (nil without -spill-dir): shared by every
	// job of this rank so a budgeted sort that cannot hold its receive
	// volume degrades to disk instead of failing.
	spill      *core.SpillOptions
	spillStats *metrics.SpillStats

	jobsDone, jobsFailed atomic.Int64
	jobSeconds           *telemetry.Histogram

	// Degraded-mode state, flipped by a successful shrink and surfaced
	// through /healthz.
	degraded  atomic.Bool
	worldSize atomic.Int64
}

func (e *nodeEnv) finishJob(elapsed time.Duration, failed bool) {
	if failed {
		e.jobsFailed.Add(1)
	} else {
		e.jobsDone.Add(1)
	}
	if e.jobSeconds != nil {
		e.jobSeconds.Observe(elapsed.Seconds())
	}
}

// config is the parsed command line. The per-job flags bind straight
// into job, the defaults every job spec of a served stream overlays.
type config struct {
	rank, size, node, epoch         int
	registry, listen                string
	timeout, deadline               time.Duration
	job                             jobParams
	serve, shrink, ckptSync         bool
	jobsPath, ckptDir, telAddr, trc string
	memB                            int64
	spillDir                        string
	spillChunk                      int
	faultWrap                       bool
	faultKillRank                   int
	faultKillFile                   string
	retries                         int
	retryBase, retryMax             time.Duration
	sendTO, recvTO, gapTO           time.Duration
}

// parseFlags parses and validates the command line. A nil config means
// exit with code right away: a usage error, or -version having printed.
func parseFlags(args []string) (*config, int) {
	cfg := &config{}
	fs := flag.NewFlagSet("sdsnode", flag.ContinueOnError)
	fs.IntVar(&cfg.rank, "rank", -1, "this process's rank (0..size-1, required)")
	fs.IntVar(&cfg.size, "size", 0, "total ranks (required)")
	fs.IntVar(&cfg.node, "node", -1, "physical node id (default: rank)")
	fs.StringVar(&cfg.registry, "registry", "127.0.0.1:7777", "bootstrap registry address (rank 0 binds it)")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "data listener bind address")
	fs.StringVar(&cfg.job.workload, "workload", "zipf", "generated shard: uniform | zipf | any preset ("+strings.Join(workload.PresetNames(), " | ")+")")
	fs.StringVar(&cfg.job.algo, "algo", "sds", "sorting driver: "+strings.Join(algo.Names(), " | "))
	fs.Float64Var(&cfg.job.alpha, "alpha", 1.4, "Zipf exponent")
	fs.IntVar(&cfg.job.n, "n", 100_000, "records per rank when generating")
	fs.StringVar(&cfg.job.in, "in", "", "read this rank's shard from a float64 record file instead")
	fs.StringVar(&cfg.job.out, "out", "", "write the sorted shard here")
	fs.BoolVar(&cfg.job.stable, "stable", false, "stable sort")
	fs.Int64Var(&cfg.job.stage, "stage", 0, "staging window for the data exchange in bytes (0 = one chunk per peer)")
	fs.Int64Var(&cfg.job.seed, "seed", 1, "workload seed (combined with rank)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "bootstrap timeout")

	fs.BoolVar(&cfg.serve, "serve", false, "serve a stream of jobs over the warm fabric instead of one sort")
	fs.StringVar(&cfg.jobsPath, "jobs", "", "job manifest for -serve, one JSON spec per line (default: stdin)")

	fs.StringVar(&cfg.telAddr, "telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/trace on this address (e.g. :9090)")
	fs.StringVar(&cfg.trc, "trace", "", "write JSONL trace events here; the first write error fails the run")
	fs.Int64Var(&cfg.memB, "mem", 0, "per-process memory budget in bytes, reserved against by sorts and exported at /metrics (0 = unlimited, untracked)")

	fs.StringVar(&cfg.spillDir, "spill-dir", "", "enable the out-of-core spill tier here: budgeted sorts spill sorted runs to disk instead of failing, and a one-shot -in sort streams the shard without ever holding it resident")
	fs.IntVar(&cfg.spillChunk, "spill-chunk", 0, "records per spilled in-memory run (0 = derive from -mem)")

	fs.IntVar(&cfg.epoch, "epoch", 0, "recovery epoch; rank 0's value is authoritative and adopted by all ranks")
	fs.StringVar(&cfg.ckptDir, "ckpt-dir", "", "checkpoint directory shared by all ranks; enables phase snapshots and resume (one-shot mode only)")
	fs.BoolVar(&cfg.shrink, "allow-shrink", false, "on losing a peer, finish the sort on the survivors from the last checkpoint cut instead of exiting 3 (requires -ckpt-dir; exits 5 on degraded success)")
	fs.DurationVar(&cfg.deadline, "job-deadline", 0, "kill the process after this per-job wall-clock budget (0 = none)")
	fs.BoolVar(&cfg.ckptSync, "ckpt-sync", false, "commit checkpoints synchronously at each phase boundary instead of on the background writer (durable-at-boundary; slower)")

	// Fault-injection harness, for recovery drills and the multi-process
	// end-to-end tests: every rank of the world must pass -fault-wrap
	// (the injected framing is world-wide), and a victim additionally
	// names itself and its trigger file. The kill is hard — the process
	// exits 137 mid-operation, a SIGKILL as far as the fabric is
	// concerned.
	fs.BoolVar(&cfg.faultWrap, "fault-wrap", false, "wrap the transport in the deterministic fault-injection harness (all ranks must agree on this flag)")
	fs.IntVar(&cfg.faultKillRank, "fault-kill-rank", -1, "fault harness: world rank to kill (requires -fault-wrap; -1 = nobody)")
	fs.StringVar(&cfg.faultKillFile, "fault-kill-after-file", "", "fault harness: the kill fires on the victim's first transport operation after this file exists")

	version := fs.Bool("version", false, "print the build version and exit")

	fs.IntVar(&cfg.retries, "retries", 5, "per-frame send attempts before declaring the peer lost")
	fs.DurationVar(&cfg.retryBase, "retry-base", 2*time.Millisecond, "initial send retry backoff (doubles per attempt)")
	fs.DurationVar(&cfg.retryMax, "retry-max", 250*time.Millisecond, "send retry backoff cap")
	fs.DurationVar(&cfg.sendTO, "send-timeout", 30*time.Second, "per-frame connection write deadline")
	fs.DurationVar(&cfg.recvTO, "recv-timeout", 0, "receive failure-detector timeout (0 = wait forever, as MPI does)")
	fs.DurationVar(&cfg.gapTO, "gap-timeout", 5*time.Second, "how long a sequence gap may persist after a reconnect before the peer is declared lost")
	if err := fs.Parse(args); err != nil {
		return nil, exitUsage
	}
	if *version {
		fmt.Println(buildinfo.String("sdsnode"))
		return nil, exitOK
	}
	usage := func(format string, a ...any) (*config, int) {
		log.Printf("sdsnode: "+format, a...)
		return nil, exitUsage
	}
	switch {
	case cfg.rank < 0 || cfg.size <= 0 || cfg.rank >= cfg.size:
		return usage("need -rank in [0,%d) and -size > 0", cfg.size)
	case cfg.epoch < 0:
		return usage("negative -epoch %d", cfg.epoch)
	case cfg.serve && cfg.ckptDir != "":
		return usage("-ckpt-dir is not supported with -serve (checkpointed recovery is per one-shot job)")
	case cfg.shrink && cfg.ckptDir == "":
		return usage("-allow-shrink needs -ckpt-dir (the survivors resume from the checkpointed cut)")
	}
	if err := cfg.job.checkAlgo(cfg.ckptDir != ""); err != nil {
		return usage("%v", err)
	}
	if cfg.spillDir != "" && cfg.job.in != "" && cfg.job.algo != algo.NameSDS {
		return usage("the fully out-of-core -in streaming path requires -algo sds")
	}
	if (cfg.faultKillRank >= 0 || cfg.faultKillFile != "") && !cfg.faultWrap {
		return usage("-fault-kill-rank/-fault-kill-after-file need -fault-wrap on every rank")
	}
	if cfg.node < 0 {
		cfg.node = cfg.rank
	}
	return cfg, exitOK
}

// loadJobs reads and validates the -serve manifest before the expensive
// bootstrap, so a typo'd job stream fails fast, as a usage error.
func loadJobs(cfg *config) ([]NodeJob, error) {
	var r io.Reader = os.Stdin
	if cfg.jobsPath != "" {
		f, err := os.Open(cfg.jobsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	jobs, err := DecodeJobs(r)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("empty job stream")
	}
	// Per-job driver choices fail here, before the fabric boots: a
	// desynchronised usage error mid-stream would strand the world.
	for i, jb := range jobs {
		if err := cfg.job.withSpec(jb, 0).checkAlgo(false); err != nil {
			return nil, fmt.Errorf("job %d %q: %v", i, jb.Name, err)
		}
	}
	return jobs, nil
}

// newEnv builds the per-process observability plumbing: the memory
// gauge, the spill tier and the trace sinks. finish finalises the JSONL
// trace: its first write error is latched and surfaced, with the close
// error, as a non-zero exit instead of silently shipping a truncated
// trace. (The serve-mode deadline exit bypasses it by design — the
// process is wedged.)
func newEnv(cfg *config) (env *nodeEnv, finish func(code int) int, code int) {
	env = &nodeEnv{
		exch:      &metrics.ExchangeStats{},
		algoStats: &metrics.AlgoStats{},
		skew:      metrics.NewSkewStats(),
	}
	env.worldSize.Store(int64(cfg.size))
	if cfg.memB > 0 {
		env.gauge = memlimit.New(cfg.memB)
	}
	if cfg.spillDir != "" {
		// Sweep wreckage from a previous crashed incarnation before
		// spilling new runs next to it — committed run files from live
		// handles are never TempPrefix-named, so the sweep is safe even
		// when several ranks share the directory.
		if err := extsort.RemoveStaleTemps(cfg.spillDir); err != nil {
			log.Printf("spill: %v", err)
			return nil, nil, exitLocalError
		}
		env.spillStats = &metrics.SpillStats{}
		env.spill = &core.SpillOptions{Dir: cfg.spillDir, ChunkRecords: cfg.spillChunk, Stats: env.spillStats}
		env.spill.FitBudget(cfg.memB)
	}
	finish = func(code int) int { return code }
	var sinks []trace.Tracer
	if cfg.trc != "" {
		jl, err := trace.CreateJSONL(cfg.trc)
		if err != nil {
			log.Printf("trace: %v", err)
			return nil, nil, exitLocalError
		}
		sinks = append(sinks, jl)
		finish = func(code int) int {
			if err := jl.Close(); err != nil {
				log.Printf("trace: %v", err)
				code = max(code, exitLocalError) // only a clean exit is downgraded
			}
			return code
		}
	}
	if cfg.telAddr != "" {
		env.ring = trace.NewRing(1024)
		sinks = append(sinks, env.ring)
	}
	env.tracer = trace.NewTee(sinks...)
	return env, finish, exitOK
}

// fabric is this rank's end of the booted world.
type fabric struct {
	tcp   *tcpcomm.Transport
	tr    comm.Transport // tcp, or tcp under the fault harness
	name  string         // the world's epoch-fenced name
	epoch int            // the coordinator's epoch, adopted at registration
	world *comm.Comm
}

// bootstrap joins the TCP world, layers the fault harness when asked,
// names the world after the coordinator's epoch and aligns clocks.
func bootstrap(cfg *config, env *nodeEnv) (*fabric, int) {
	tcp, err := tcpcomm.New(tcpcomm.Config{
		Rank: cfg.rank, Size: cfg.size, Node: cfg.node, Epoch: cfg.epoch,
		Registry: cfg.registry, Listen: cfg.listen, Timeout: cfg.timeout,
		Retry: comm.RetryPolicy{
			MaxAttempts: cfg.retries, BaseDelay: cfg.retryBase, MaxDelay: cfg.retryMax,
			Seed: cfg.job.seed + int64(cfg.rank),
		},
		SendTimeout: cfg.sendTO,
		RecvTimeout: cfg.recvTO,
		GapTimeout:  cfg.gapTO,
	})
	if err != nil {
		log.Printf("bootstrap: %v", err)
		return nil, exitCode(err)
	}
	fab := &fabric{tcp: tcp, tr: tcp, epoch: tcp.Epoch()}
	if cfg.faultWrap {
		inj, err := faultnet.New(faultnet.Plan{
			Seed: cfg.job.seed, KillRank: cfg.faultKillRank,
			KillAfterFile: cfg.faultKillFile, KillHard: true,
		})
		if err != nil {
			tcp.Close()
			log.Printf("fault harness: %v", err)
			return nil, exitUsage
		}
		fab.tr = inj.Wrap(tcp)
		if cfg.faultKillRank == cfg.rank {
			log.Printf("fault harness armed: this rank dies after %s exists", cfg.faultKillFile)
		}
	}
	// The coordinator's epoch won at registration; name the world after
	// it so frames from an older incarnation are undeliverable here.
	fab.name = cluster.WorldName(fab.epoch, false, cfg.size)
	fab.world = comm.NewNamed(fab.tr, fab.name)
	log.Printf("joined world of %d ranks (epoch %d)", cfg.size, fab.epoch)
	// Align clocks before any spans are cut: rank 0 ping-pongs every
	// peer and broadcasts the measured offsets, and each rank records
	// its own in the trace — sdstrace subtracts it to project all
	// processes onto rank 0's timeline. Re-measured after a shrink (the
	// reformed world may elect a different rank 0; see shrink.go).
	if err := syncClocks(fab.world, env); err != nil {
		tcp.Close()
		log.Printf("clock sync: %v", err)
		return nil, exitCode(err)
	}
	return fab, exitOK
}

// startTelemetry serves this rank's registry under -telemetry-addr and
// does nothing without it; stop closes the server.
func startTelemetry(cfg *config, fab *fabric, env *nodeEnv) (stop func(), code int) {
	if cfg.telAddr == "" {
		return func() {}, exitOK
	}
	reg := telemetry.NewRegistry()
	fab.tcp.Stats().Register(reg)
	telemetry.RegisterNodeInfo(reg, cfg.rank, cfg.size, fab.epoch)
	buildinfo.Register(reg)
	checkpoint.RegisterMetrics(reg)
	env.exch.Register(reg)
	env.skew.Register(reg)
	env.algoStats.Register(reg, algo.Names()...)
	if env.spillStats != nil {
		env.spillStats.Register(reg)
	}
	if env.gauge != nil {
		telemetry.RegisterMem(reg, env.gauge)
	}
	reg.CounterFunc("sds_node_jobs_done_total", "Jobs this rank completed successfully.",
		func() float64 { return float64(env.jobsDone.Load()) })
	reg.CounterFunc("sds_node_jobs_failed_total", "Jobs this rank saw fail or skip.",
		func() float64 { return float64(env.jobsFailed.Load()) })
	env.jobSeconds = reg.Histogram("sds_node_job_seconds", "Wall time of this rank's jobs.", telemetry.DefaultLatencyBuckets())
	reg.CounterFunc("sds_trace_dropped_total", "Trace events the ring buffer overwrote before they could be read.",
		telemetry.FInt(env.ring.Dropped))
	srv, err := telemetry.NewServer(cfg.telAddr, reg, telemetry.ServerOptions{
		Trace: env.ring.MarshalJSONL,
		Spans: func() any { return trace.BuildSpans(env.ring.Events()) },
		Health: func() telemetry.Health {
			h := telemetry.Health{
				Status: "ok", Rank: cfg.rank, Size: cfg.size, Epoch: fab.epoch,
				JobsDone:   env.jobsDone.Load(),
				JobsFailed: env.jobsFailed.Load(),
			}
			if env.degraded.Load() {
				h.Degraded = true
				h.WorldSize = int(env.worldSize.Load())
			}
			return h
		},
	})
	if err != nil {
		log.Printf("telemetry: %v", err)
		return nil, exitLocalError
	}
	log.Printf("telemetry on http://%s", srv.Addr())
	return func() { srv.Close() }, exitOK
}

// run is the process: parse, bootstrap, then the job loop (serveJobs) or
// the one sort with its recovery (oneShot).
func run(args []string) (code int) {
	log.SetFlags(0)
	cfg, code := parseFlags(args)
	if cfg == nil {
		return code
	}
	log.SetPrefix(fmt.Sprintf("sdsnode[%d]: ", cfg.rank))
	var jobs []NodeJob
	if cfg.serve {
		var err error
		if jobs, err = loadJobs(cfg); err != nil {
			log.Printf("jobs: %v", err)
			return exitUsage
		}
	}
	env, finishTrace, code := newEnv(cfg)
	if code != exitOK {
		return code
	}
	defer func() { code = finishTrace(code) }()

	// In one-shot mode the single sort is the job, so the per-job
	// deadline is simply absolute for the process. When it fires the
	// process is past saving — exit directly rather than threading
	// cancellation through every blocking transport call. (In -serve
	// mode the timer is armed per job instead; see serveJobs.)
	if !cfg.serve && cfg.deadline > 0 {
		time.AfterFunc(cfg.deadline, func() {
			log.Printf("job deadline %v exceeded", cfg.deadline)
			os.Exit(exitDeadline)
		})
	}

	fab, code := bootstrap(cfg, env)
	if code != exitOK {
		return code
	}
	defer fab.tcp.Close()
	if cfg.shrink {
		// Liveness responders must be up before the sort: after a
		// failure, survivors probe each other while some are still stuck
		// inside the dying collective.
		defer cluster.StartProber(fab.tr, fab.name)()
	}
	stopTelemetry, code := startTelemetry(cfg, fab, env)
	if code != exitOK {
		return code
	}
	defer stopTelemetry()

	if cfg.serve {
		return serveJobs(fab, cfg, jobs, env)
	}
	return oneShot(cfg, fab, env)
}

// leave is the farewell barrier: it keeps rank 0's process alive until
// everyone has finished sending.
func leave(c *comm.Comm) error {
	err := c.Barrier()
	if lost, ok := comm.PeerLost(err); ok {
		log.Printf("final barrier: peer rank %d lost: %v", lost, err)
	} else if err != nil {
		log.Printf("final barrier: %v", err)
	}
	return err
}

// oneShot runs the single sort of a non-serve process: fully out of
// core when it can be, otherwise resident with optional phase
// checkpoints, resume and — under -allow-shrink — degraded recovery.
func oneShot(cfg *config, fab *fabric, env *nodeEnv) int {
	c, sc := fab.world, trace.Scope{Trace: fab.name}
	// Fully out-of-core when it can be: the shard streams from the input
	// file through the spill tier and into the output shard without ever
	// being resident — a fixed -mem sorts inputs of any size. (With
	// -ckpt-dir the resident driver runs instead: it keeps phase
	// snapshots and still spills its exchange under pressure.)
	stream := cfg.spillDir != "" && cfg.job.in != "" && cfg.ckptDir == ""
	var data []float64
	if !stream {
		var code int
		if data, code = loadJobData(cfg.job, cfg.rank, cfg.size); code != exitOK {
			return code
		}
	}
	var ck *core.Checkpointing
	if cfg.ckptDir != "" {
		store, err := checkpoint.NewStore(cfg.ckptDir, cfg.size)
		if err != nil {
			log.Printf("checkpoint: %v", err)
			return exitLocalError
		}
		ck = &core.Checkpointing{Store: store, Epoch: fab.epoch, Sync: cfg.ckptSync}
		if fab.epoch > 0 {
			cut, ok, err := checkpoint.AgreeCut(c, store)
			if err != nil {
				log.Printf("checkpoint cut: %v", err)
				return exitCode(err)
			}
			if ok {
				ck.Resume = cut
				log.Printf("resuming from checkpoint %s of epoch %d", cut.Phase, cut.Epoch)
			} else {
				log.Printf("no consistent checkpoint; restarting from scratch")
			}
		}
	}

	code, err := sortJob(c, cfg.job, data, stream, ck, "", sc, env)
	if code == exitOK {
		// A rank that died between its last send and the farewell
		// barrier is still a loss the survivors can absorb: the final
		// cut is checkpointed, so the shrink re-derives the dead rank's
		// output shard onto the survivors.
		err = leave(c)
		code = exitCode(err)
	}
	if code == exitPeerLost && cfg.shrink {
		return shrinkAndResume(cfg, fab, err, ck, env)
	}
	return code
}

// serveJobs is the -serve loop: each job of the stream runs on its own
// communicator attached to the warm fabric under the agreed per-job
// name. A job whose input cannot be loaded is skipped by the whole
// world in lockstep (a one-int agreement round precedes every sort), so
// one bad manifest entry degrades that job, not the stream; errors
// inside a collective sort are fatal to the process, as they are in
// one-shot mode, because a desynchronised rank cannot rejoin.
func serveJobs(fab *fabric, cfg *config, jobs []NodeJob, env *nodeEnv) int {
	worst := exitOK
	for i, jb := range jobs {
		p := cfg.job.withSpec(jb, cfg.rank)
		dl, err := jb.DeadlineDuration(cfg.deadline)
		if err != nil { // pre-validated by DecodeJobs; belt and braces
			log.Printf("job %d: %v", i, err)
			return exitUsage
		}
		// The job's communicator: same fabric, fresh message context.
		// Attach never owns the transport, so dropping the comm after
		// the job cannot disturb its siblings.
		jc := comm.Attach(fab.tr, JobCommName(fab.name, i))

		// Per-job deadline: the clock starts when the job starts, not
		// at process launch, and is disarmed the moment the job
		// completes — ten quick jobs never accumulate into an overrun.
		var timer *time.Timer
		if dl > 0 {
			jobDL := dl
			name := p.name
			timer = time.AfterFunc(jobDL, func() {
				log.Printf("job %q deadline %v exceeded", name, jobDL)
				os.Exit(exitDeadline)
			})
		}

		data, loadCode := loadJobData(p, cfg.rank, cfg.size)
		if loadCode == exitUsage {
			return exitUsage
		}
		// Agree to run: if any rank failed to load the job's input, the
		// whole world skips the job together instead of deadlocking the
		// healthy ranks in a sort the broken rank never joins.
		ok := int64(1)
		if loadCode != exitOK {
			ok = 0
		}
		agreed, err := jc.AllreduceInt64(ok, func(a, b int64) int64 { return min(a, b) })
		if err != nil {
			log.Printf("job %q: readiness agreement: %v", p.name, err)
			return exitCode(err)
		}
		if agreed == 0 {
			if timer != nil {
				timer.Stop()
			}
			log.Printf("job %d/%d %q skipped (input unavailable on some rank)", i+1, len(jobs), p.name)
			env.jobsFailed.Add(1)
			worst = exitLocalError
			continue
		}

		sc := trace.Scope{Trace: JobCommName(fab.name, i), Job: p.name}
		if code, _ := sortJob(jc, p, data, false, nil, fmt.Sprintf("job %d/%d %q: ", i+1, len(jobs), p.name), sc, env); code != exitOK {
			// A failed collective leaves this rank desynchronised from
			// the stream; stop here rather than corrupt later jobs.
			return code
		}
		if timer != nil {
			timer.Stop()
		}
		log.Printf("job %d/%d %q done", i+1, len(jobs), p.name)
	}
	// Leave together, exactly as one-shot mode does.
	if err := leave(fab.world); err != nil {
		return exitCode(err)
	}
	return worst
}

// loadJobData produces this rank's shard for one job: read from the
// job's input file or generated. It returns a non-OK exit code instead
// of data when the job cannot start locally.
func loadJobData(p jobParams, rank, size int) ([]float64, int) {
	if p.in != "" {
		// Each rank seeks directly to its shard of the shared file.
		data, err := recordio.ReadShard(p.in, codec.Float64{}, rank, size)
		if err != nil {
			log.Print(err)
			return nil, exitLocalError
		}
		return data, exitOK
	}
	switch p.workload {
	case "uniform":
		return workload.Uniform(p.seed+int64(rank)*997, p.n), exitOK
	case "zipf":
		// Explicit case so -alpha keeps steering the exponent; the
		// preset of the same name pins the paper's α=1.4.
		return workload.ZipfKeys(p.seed+int64(rank)*997, p.n, p.alpha, workload.DefaultZipfUniverse), exitOK
	default:
		if pre, ok := workload.LookupPreset(p.workload); ok {
			return pre.Gen(p.seed+int64(rank)*997, p.n), exitOK
		}
		log.Printf("unknown workload %q (presets: %s)", p.workload, strings.Join(workload.PresetNames(), " | "))
		return nil, exitUsage
	}
}

// sortOptions wires one job's sort to the process-wide observers and
// budgets, with a fresh phase timer for its report. The exchange stats
// are shared across the process's jobs so the telemetry plane exports
// them live (in particular the staging window gauge mid-exchange); a
// job's log line is therefore cumulative in -serve mode.
func (e *nodeEnv) sortOptions(p jobParams, sc trace.Scope) core.Options {
	opt := core.DefaultOptions()
	opt.Stable = p.stable
	opt.StageBytes = p.stage
	opt.Span = sc
	opt.Skew = e.skew
	opt.Exchange = e.exch
	opt.Mem = e.gauge
	opt.Spill = e.spill
	opt.Trace = e.tracer
	opt.Timer = metrics.NewPhaseTimer()
	return opt
}

// sortJob runs one collective sort on c with per-job metrics, reports
// the phase breakdown, and writes the output shard when requested. The
// block comes from the -algo driver over data, or, with stream set, from
// core.SortFileShard: this rank's shard of p.in streams through the
// spill tier — sorted runs spill under the spill dir, the exchange lands
// run files, and the block is merged lazily into the output shard — so
// peak memory is the tier's working set, not the shard. Every log line
// is prefixed with label so interleaved jobs of a served stream stay
// attributable. Beside the exit code it returns the sort's own error,
// when that is what failed — what a recovery decision reads.
func sortJob(c *comm.Comm, p jobParams, data []float64, stream bool, ck *core.Checkpointing, label string, sc trace.Scope, env *nodeEnv) (int, error) {
	aopt := algo.Options{Core: env.sortOptions(p, sc), Selection: env.algoStats}
	aopt.Core.Checkpoint = ck
	drv, err := algo.New[float64](p.algo)
	if err != nil { // pre-validated; belt and braces
		log.Printf("%s%v", label, err)
		return exitUsage, nil
	}

	start := time.Now()
	var records int64
	var write func(w io.Writer) error
	if stream {
		var blk *core.Spilled[float64]
		if blk, err = core.SortFileShard(c, p.in, codec.Float64{}, codec.CompareOrdered[float64], aopt.Core); err == nil {
			defer blk.Remove()
			records, write = blk.Records(), blk.Stream
		}
	} else {
		var sorted []float64
		if sorted, err = drv.Sort(context.Background(), c, data, codec.Float64{}, codec.CompareOrdered[float64], aopt); err == nil {
			records, write = int64(len(sorted)), func(w io.Writer) error {
				rw := recordio.NewWriter(w, codec.Float64{})
				if err := rw.Write(sorted...); err != nil {
					return err
				}
				return rw.Flush()
			}
		}
	}
	if err != nil {
		env.finishJob(time.Since(start), true)
		if lost, ok := comm.PeerLost(err); ok {
			// Degrade with a clear verdict rather than a hang: the
			// retry budget for this peer is spent, the run is dead.
			log.Printf("%ssort: peer rank %d lost (retry budget exhausted): %v", label, lost, err)
		} else {
			log.Printf("%ssort: %v", label, err)
		}
		return exitCode(err), err
	}
	elapsed := time.Since(start)
	// Snapshots commit in the background; make them durable before
	// claiming success — the next epoch's resume depends on them.
	if err := ck.Wait(); err != nil {
		log.Printf("%scheckpoint: %v", label, err)
		env.finishJob(elapsed, true)
		return exitLocalError, nil
	}
	env.finishJob(elapsed, false)
	held := "held"
	if stream {
		held = "spilled"
	}
	log.Printf("%sdone in %v: %d records %s locally", label, elapsed.Round(time.Millisecond), records, held)
	for _, ph := range metrics.Phases() {
		log.Printf("  %-16s %s", ph.String(), metrics.FmtDur(aopt.Core.Timer.Get(ph)))
	}
	log.Printf("  %s", env.exch)
	zc := "no"
	if env.exch.ZeroCopyUsed() {
		zc = "yes"
	}
	log.Printf("  zero-copy: %s", zc)
	if env.spillStats.Spilled() {
		log.Printf("  %s", env.spillStats)
	}
	if env.gauge != nil {
		log.Printf("  mem peak: %d of %d bytes", env.gauge.Peak(), env.gauge.Budget())
	}

	if p.out != "" {
		// Through the tier's file writer, like every run: committed by
		// rename, so a crash mid-write never leaves a truncated shard
		// behind — or written in place when the destination is /dev/null
		// or a pipe, which a rename would replace.
		dst, err := extsort.CreateFile(p.out, 0)
		if err == nil {
			defer dst.Abort()
			if err = write(dst); err == nil {
				err = dst.Commit()
			}
		}
		if err != nil {
			log.Print(err)
			return exitLocalError, nil
		}
		log.Printf("%swrote %s", label, p.out)
	}
	return exitOK, nil
}

// syncClocks aligns this world's clocks (collective — every rank calls
// it) and records each rank's measured offset from rank 0 as a
// clock.offset trace event, the anchor sdstrace -format chrome and the
// multi-file merge use to place all processes on one timeline.
func syncClocks(c *comm.Comm, env *nodeEnv) error {
	cs, err := c.SyncClocks(0)
	if err != nil {
		return err
	}
	rank := c.Rank()
	d := map[string]any{"offset_us": cs.Offset(rank), "world": c.Size()}
	if rank < len(cs.RTTs) {
		d["rtt_us"] = cs.RTTs[rank]
	}
	env.tracer.Emit(rank, trace.KindClockOffset, d)
	return nil
}
