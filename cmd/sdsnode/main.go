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
// point. See internal/engine.NodeJob for the spec fields.
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
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sdssort/internal/algo"
	"sdssort/internal/buildinfo"
	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/engine"
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
func (p jobParams) withSpec(jb engine.NodeJob, rank int) jobParams {
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

func run(args []string) (code int) {
	log.SetFlags(0)
	fs := flag.NewFlagSet("sdsnode", flag.ContinueOnError)
	var (
		rank     = fs.Int("rank", -1, "this process's rank (0..size-1, required)")
		size     = fs.Int("size", 0, "total ranks (required)")
		node     = fs.Int("node", -1, "physical node id (default: rank)")
		registry = fs.String("registry", "127.0.0.1:7777", "bootstrap registry address (rank 0 binds it)")
		listen   = fs.String("listen", "127.0.0.1:0", "data listener bind address")
		wl       = fs.String("workload", "zipf", "generated shard: uniform | zipf | any preset ("+strings.Join(workload.PresetNames(), " | ")+")")
		algoName = fs.String("algo", "sds", "sorting driver: "+strings.Join(algo.Names(), " | "))
		alpha    = fs.Float64("alpha", 1.4, "Zipf exponent")
		n        = fs.Int("n", 100_000, "records per rank when generating")
		in       = fs.String("in", "", "read this rank's shard from a float64 record file instead")
		out      = fs.String("out", "", "write the sorted shard here")
		stable   = fs.Bool("stable", false, "stable sort")
		stage    = fs.Int64("stage", 0, "staging window for the data exchange in bytes (0 = one chunk per peer)")
		seed     = fs.Int64("seed", 1, "workload seed (combined with rank)")
		timeout  = fs.Duration("timeout", 30*time.Second, "bootstrap timeout")

		serve    = fs.Bool("serve", false, "serve a stream of jobs over the warm fabric instead of one sort")
		jobsPath = fs.String("jobs", "", "job manifest for -serve, one JSON spec per line (default: stdin)")

		telAddr = fs.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/trace on this address (e.g. :9090); rank 0 also serves fabric-wide totals")
		trc     = fs.String("trace", "", "write JSONL trace events here; the first write error fails the run")
		memB    = fs.Int64("mem", 0, "per-process memory budget in bytes, reserved against by sorts and exported at /metrics (0 = unlimited, untracked)")

		spillDir   = fs.String("spill-dir", "", "enable the out-of-core spill tier here: budgeted sorts spill sorted runs to disk instead of failing, and a one-shot -in sort streams the shard without ever holding it resident")
		spillChunk = fs.Int("spill-chunk", 0, "records per spilled in-memory run (0 = derive from -mem)")

		epoch    = fs.Int("epoch", 0, "recovery epoch; rank 0's value is authoritative and adopted by all ranks")
		ckptDir  = fs.String("ckpt-dir", "", "checkpoint directory shared by all ranks; enables phase snapshots and resume (one-shot mode only)")
		shrink   = fs.Bool("allow-shrink", false, "on losing a peer, finish the sort on the survivors from the last checkpoint cut instead of exiting 3 (requires -ckpt-dir; exits 5 on degraded success)")
		deadline = fs.Duration("job-deadline", 0, "kill the process after this per-job wall-clock budget (0 = none)")

		ckptSync = fs.Bool("ckpt-sync", false, "commit checkpoints synchronously at each phase boundary instead of on the background writer (durable-at-boundary; slower)")

		// Fault-injection harness, for recovery drills and the
		// multi-process end-to-end tests: every rank of the world must
		// pass -fault-wrap (the injected framing is world-wide), and a
		// victim additionally names itself and its trigger file. The
		// kill is hard — the process exits 137 mid-operation, a SIGKILL
		// as far as the fabric is concerned.
		faultWrap     = fs.Bool("fault-wrap", false, "wrap the transport in the deterministic fault-injection harness (all ranks must agree on this flag)")
		faultKillRank = fs.Int("fault-kill-rank", -1, "fault harness: world rank to kill (requires -fault-wrap; -1 = nobody)")
		faultKillFile = fs.String("fault-kill-after-file", "", "fault harness: the kill fires on the victim's first transport operation after this file exists")

		version = fs.Bool("version", false, "print the build version and exit")

		retries   = fs.Int("retries", 5, "per-frame send attempts before declaring the peer lost")
		retryBase = fs.Duration("retry-base", 2*time.Millisecond, "initial send retry backoff (doubles per attempt)")
		retryMax  = fs.Duration("retry-max", 250*time.Millisecond, "send retry backoff cap")
		sendTO    = fs.Duration("send-timeout", 30*time.Second, "per-frame connection write deadline")
		recvTO    = fs.Duration("recv-timeout", 0, "receive failure-detector timeout (0 = wait forever, as MPI does)")
		gapTO     = fs.Duration("gap-timeout", 5*time.Second, "how long a sequence gap may persist after a reconnect before the peer is declared lost")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Println(buildinfo.String("sdsnode"))
		return exitOK
	}
	if *rank < 0 || *size <= 0 || *rank >= *size {
		log.Printf("sdsnode: need -rank in [0,%d) and -size > 0", *size)
		return exitUsage
	}
	if *epoch < 0 {
		log.Printf("sdsnode: negative -epoch %d", *epoch)
		return exitUsage
	}
	if *serve && *ckptDir != "" {
		log.Printf("sdsnode: -ckpt-dir is not supported with -serve (checkpointed recovery is per one-shot job)")
		return exitUsage
	}
	if *shrink && *ckptDir == "" {
		log.Printf("sdsnode: -allow-shrink needs -ckpt-dir (the survivors resume from the checkpointed cut)")
		return exitUsage
	}
	if err := (jobParams{stable: *stable, algo: *algoName}).checkAlgo(*ckptDir != ""); err != nil {
		log.Printf("sdsnode: %v", err)
		return exitUsage
	}
	if *spillDir != "" && *in != "" && *algoName != algo.NameSDS {
		log.Printf("sdsnode: the fully out-of-core -in streaming path requires -algo sds")
		return exitUsage
	}
	log.SetPrefix(fmt.Sprintf("sdsnode[%d]: ", *rank))
	nodeID := *node
	if nodeID < 0 {
		nodeID = *rank
	}

	// In -serve mode the manifest is validated before the expensive
	// bootstrap, so a typo'd job stream fails fast with a usage error.
	var jobs []engine.NodeJob
	if *serve {
		var r io.Reader = os.Stdin
		if *jobsPath != "" {
			f, err := os.Open(*jobsPath)
			if err != nil {
				log.Printf("jobs: %v", err)
				return exitUsage
			}
			defer f.Close()
			r = f
		}
		var err error
		jobs, err = engine.DecodeJobs(r)
		if err != nil {
			log.Printf("jobs: %v", err)
			return exitUsage
		}
		if len(jobs) == 0 {
			log.Printf("jobs: empty job stream")
			return exitUsage
		}
		// Per-job driver choices fail here, before the fabric boots: a
		// desynchronised usage error mid-stream would strand the world.
		for i, jb := range jobs {
			pj := (jobParams{stable: *stable, algo: *algoName}).withSpec(jb, 0)
			if err := pj.checkAlgo(false); err != nil {
				log.Printf("jobs: job %d %q: %v", i, jb.Name, err)
				return exitUsage
			}
		}
	}

	// Trace sinks. The JSONL file's first write error is latched and
	// surfaced at exit (a silently truncated trace is worse than none);
	// the ring feeds /debug/trace when telemetry is on.
	env := &nodeEnv{
		exch:      &metrics.ExchangeStats{},
		algoStats: &metrics.AlgoStats{},
		skew:      metrics.NewSkewStats(),
	}
	if *memB > 0 {
		env.gauge = memlimit.New(*memB)
	}
	if *spillDir != "" {
		// Sweep wreckage from a previous crashed incarnation before
		// spilling new runs next to it — committed run files from live
		// handles are never TempPrefix-named, so the sweep is safe even
		// when several ranks share the directory.
		if err := extsort.RemoveStaleTemps(*spillDir); err != nil {
			log.Printf("spill: %v", err)
			return exitLocalError
		}
		env.spillStats = &metrics.SpillStats{}
		env.spill = &core.SpillOptions{Dir: *spillDir, ChunkRecords: *spillChunk, Stats: env.spillStats}
		env.spill.FitBudget(*memB)
	}
	var (
		jl        *trace.JSONL
		traceFile *os.File
		ring      *trace.Ring
		sinks     []trace.Tracer
	)
	if *trc != "" {
		f, err := os.Create(*trc)
		if err != nil {
			log.Printf("trace: %v", err)
			return exitLocalError
		}
		traceFile = f
		jl = trace.NewJSONL(f)
		sinks = append(sinks, jl)
	}
	if *telAddr != "" {
		ring = trace.NewRing(1024)
		sinks = append(sinks, ring)
	}
	env.tracer = trace.NewTee(sinks...)
	defer func() {
		// Deliberate trace finalisation: surface the first write error
		// and the close error with a non-zero exit instead of silently
		// shipping a truncated trace. (The serve-mode deadline exit
		// bypasses this defer by design — the process is wedged.)
		if jl == nil {
			return
		}
		if err := jl.Err(); err != nil {
			log.Printf("trace: write failed, %s is incomplete: %v", *trc, err)
			if code == exitOK {
				code = exitLocalError
			}
		}
		if err := traceFile.Close(); err != nil {
			log.Printf("trace: close %s: %v", *trc, err)
			if code == exitOK {
				code = exitLocalError
			}
		}
	}()

	// In one-shot mode the single sort is the job, so the per-job
	// deadline is simply absolute for the process. When it fires the
	// process is past saving — exit directly rather than threading
	// cancellation through every blocking transport call. (In -serve
	// mode the timer is armed per job instead; see serveJobs.)
	if !*serve && *deadline > 0 {
		time.AfterFunc(*deadline, func() {
			log.Printf("job deadline %v exceeded", *deadline)
			os.Exit(exitDeadline)
		})
	}

	if (*faultKillRank >= 0 || *faultKillFile != "") && !*faultWrap {
		log.Printf("sdsnode: -fault-kill-rank/-fault-kill-after-file need -fault-wrap on every rank")
		return exitUsage
	}

	tcp, err := tcpcomm.New(tcpcomm.Config{
		Rank: *rank, Size: *size, Node: nodeID, Epoch: *epoch,
		Registry: *registry, Listen: *listen, Timeout: *timeout,
		Retry: comm.RetryPolicy{
			MaxAttempts: *retries, BaseDelay: *retryBase, MaxDelay: *retryMax,
			Seed: *seed + int64(*rank),
		},
		SendTimeout: *sendTO,
		RecvTimeout: *recvTO,
		GapTimeout:  *gapTO,
	})
	if err != nil {
		log.Printf("bootstrap: %v", err)
		return exitCode(err)
	}
	defer tcp.Close()
	var tr comm.Transport = tcp
	if *faultWrap {
		inj, err := faultnet.New(faultnet.Plan{
			Seed: *seed, KillRank: *faultKillRank,
			KillAfterFile: *faultKillFile, KillHard: true,
		})
		if err != nil {
			log.Printf("fault harness: %v", err)
			return exitUsage
		}
		tr = inj.Wrap(tr)
		if *faultKillRank == *rank {
			log.Printf("fault harness armed: this rank dies after %s exists", *faultKillFile)
		}
	}
	// The coordinator's epoch won at registration; name the world after
	// it so frames from an older incarnation are undeliverable here.
	ep := tcp.Epoch()
	worldName := "world"
	if ep > 0 {
		worldName = fmt.Sprintf("world@e%d", ep)
	}
	c := comm.NewNamed(tr, worldName)
	log.Printf("joined world of %d ranks (epoch %d)", *size, ep)
	env.worldSize.Store(int64(*size))
	// Align clocks before any spans are cut: rank 0 ping-pongs every
	// peer and broadcasts the measured offsets, and each rank records
	// its own in the trace — sdstrace subtracts it to project all
	// processes onto rank 0's timeline. Re-measured after a shrink (the
	// reformed world may elect a different rank 0; see shrink.go).
	if err := syncClocks(c, env); err != nil {
		log.Printf("clock sync: %v", err)
		return exitCode(err)
	}
	if *shrink {
		// Liveness responders must be up before the sort: after a
		// failure, survivors probe each other while some are still stuck
		// inside the dying collective.
		startProber(tr, worldName)
	}

	// Telemetry plane. Every rank builds a registry and (rank > 0)
	// parks an aggregation responder on the fabric, so a coordinator
	// scrape can sum the whole world even when only rank 0 carries
	// -telemetry-addr. The HTTP server itself is per-flag.
	reg := telemetry.NewRegistry()
	tcp.Stats().Register(reg)
	telemetry.RegisterNodeInfo(reg, *rank, *size, ep)
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
	if ring != nil {
		reg.CounterFunc("sds_trace_dropped_total", "Trace events the ring buffer overwrote before they could be read.",
			telemetry.FInt(ring.Dropped))
	}
	if *rank != 0 {
		telemetry.StartResponder(tr, worldName, reg)
	}
	var agg *telemetry.Aggregator
	if *telAddr != "" {
		opts := telemetry.ServerOptions{
			Trace: ring.MarshalJSONL,
			Spans: func() any { return trace.BuildSpans(ring.Events()) },
			Health: func() telemetry.Health {
				h := telemetry.Health{
					Status: "ok", Rank: *rank, Size: *size, Epoch: ep,
					JobsDone:         env.jobsDone.Load(),
					JobsFailed:       env.jobsFailed.Load(),
					GatherAgeSeconds: -1,
				}
				if env.degraded.Load() {
					h.Degraded = true
					h.WorldSize = int(env.worldSize.Load())
				}
				if agg != nil {
					if age := agg.GatherAge(); age >= 0 {
						h.GatherAgeSeconds = age.Seconds()
					}
				}
				return h
			},
		}
		if *rank == 0 {
			agg = telemetry.NewAggregator(tr, worldName, reg, 2*time.Second)
			opts.Aggregate = func(w http.ResponseWriter) { agg.Render(w) }
		}
		srv, err := telemetry.NewServer(*telAddr, reg, opts)
		if err != nil {
			log.Printf("telemetry: %v", err)
			return exitLocalError
		}
		defer srv.Close()
		log.Printf("telemetry on http://%s", srv.Addr())
	}

	defaults := jobParams{
		workload: *wl, alpha: *alpha, n: *n, seed: *seed,
		in: *in, out: *out, stable: *stable, stage: *stage,
		algo: *algoName,
	}

	if *serve {
		return serveJobs(c, tr, worldName, *rank, *size, defaults, jobs, *deadline, env)
	}

	if *spillDir != "" && defaults.in != "" && *ckptDir == "" {
		// Fully out-of-core one-shot: the shard streams from the input
		// file through the spill tier and into the output shard without
		// ever being resident — a fixed -mem sorts inputs of any size.
		// (With -ckpt-dir the resident driver below runs instead: it
		// keeps phase snapshots and still spills its exchange under
		// pressure.)
		if code := spillSortJob(c, defaults, trace.Scope{Trace: worldName}, env); code != exitOK {
			return code
		}
		if err := c.Barrier(); err != nil {
			if lost, ok := comm.PeerLost(err); ok {
				log.Printf("final barrier: peer rank %d lost: %v", lost, err)
			} else {
				log.Printf("final barrier: %v", err)
			}
			return exitCode(err)
		}
		return exitOK
	}

	data, code := loadJobData(defaults, *rank, *size)
	if code != exitOK {
		return code
	}

	var ck *core.Checkpointing
	if *ckptDir != "" {
		store, err := checkpoint.NewStore(*ckptDir, *size)
		if err != nil {
			log.Printf("checkpoint: %v", err)
			return exitLocalError
		}
		ck = &core.Checkpointing{Store: store, Epoch: ep, Sync: *ckptSync}
		if ep > 0 {
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

	if code := sortJob(c, defaults, data, ck, "", trace.Scope{Trace: worldName}, env); code != exitOK {
		if code == exitPeerLost && *shrink {
			return shrinkAndResume(tr, worldName, ep, *ckptDir, defaults, ck, env, agg)
		}
		return code
	}
	// Leave together: a final barrier keeps rank 0's process alive
	// until everyone has finished sending.
	if err := c.Barrier(); err != nil {
		if lost, ok := comm.PeerLost(err); ok {
			log.Printf("final barrier: peer rank %d lost: %v", lost, err)
			// A rank that died between its last send and the farewell
			// barrier is still a loss the survivors can absorb: the
			// final cut is checkpointed, so the shrink re-derives the
			// dead rank's output shard onto the survivors.
			if *shrink {
				return shrinkAndResume(tr, worldName, ep, *ckptDir, defaults, ck, env, agg)
			}
		} else {
			log.Printf("final barrier: %v", err)
		}
		return exitCode(err)
	}
	return exitOK
}

// serveJobs is the -serve loop: each job of the stream runs on its own
// communicator attached to the warm fabric under the agreed per-job
// name. A job whose input cannot be loaded is skipped by the whole
// world in lockstep (a one-int agreement round precedes every sort), so
// one bad manifest entry degrades that job, not the stream; errors
// inside a collective sort are fatal to the process, as they are in
// one-shot mode, because a desynchronised rank cannot rejoin.
func serveJobs(world *comm.Comm, tr comm.Transport, worldName string, rank, size int, defaults jobParams, jobs []engine.NodeJob, defDeadline time.Duration, env *nodeEnv) int {
	worst := exitOK
	for i, jb := range jobs {
		p := defaults.withSpec(jb, rank)
		dl, err := jb.DeadlineDuration(defDeadline)
		if err != nil { // pre-validated by DecodeJobs; belt and braces
			log.Printf("job %d: %v", i, err)
			return exitUsage
		}
		// The job's communicator: same fabric, fresh message context.
		// Attach never owns the transport, so dropping the comm after
		// the job cannot disturb its siblings.
		jc := comm.Attach(tr, engine.JobCommName(worldName, i))

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

		data, loadCode := loadJobData(p, rank, size)
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

		sc := trace.Scope{Trace: engine.JobCommName(worldName, i), Job: p.name}
		if code := sortJob(jc, p, data, nil, fmt.Sprintf("job %d/%d %q: ", i+1, len(jobs), p.name), sc, env); code != exitOK {
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
	if err := world.Barrier(); err != nil {
		if lost, ok := comm.PeerLost(err); ok {
			log.Printf("final barrier: peer rank %d lost: %v", lost, err)
		} else {
			log.Printf("final barrier: %v", err)
		}
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

// sortJob runs one collective sort on c with per-job metrics, reports
// the phase breakdown, and writes the output shard when requested.
// Every log line is prefixed with label so interleaved jobs of a served
// stream stay attributable.
func sortJob(c *comm.Comm, p jobParams, data []float64, ck *core.Checkpointing, label string, sc trace.Scope, env *nodeEnv) int {
	aopt := algo.DefaultOptions()
	aopt.Core.Stable = p.stable
	aopt.Core.StageBytes = p.stage
	aopt.Core.Span = sc
	aopt.Core.Skew = env.skew
	// The exchange stats are shared across the process's jobs so the
	// telemetry plane exports them live (in particular the staging
	// window gauge mid-exchange); the log line below is therefore
	// cumulative in -serve mode. Wired unconditionally: the counters
	// accrue whether or not -stage sets a chunk bound.
	exch := env.exch
	aopt.Core.Exchange = exch
	aopt.Core.Mem = env.gauge
	aopt.Core.Spill = env.spill
	aopt.Core.Trace = env.tracer
	tm := metrics.NewPhaseTimer()
	aopt.Core.Timer = tm
	if ck != nil {
		aopt.Core.Checkpoint = ck
	}
	aopt.Selection = env.algoStats
	drv, err := algo.New[float64](p.algo)
	if err != nil { // pre-validated; belt and braces
		log.Printf("%s%v", label, err)
		return exitUsage
	}

	start := time.Now()
	sorted, err := drv.Sort(context.Background(), c, data, codec.Float64{}, cmpF, aopt)
	if err != nil {
		env.finishJob(time.Since(start), true)
		if lost, ok := comm.PeerLost(err); ok {
			// Degrade with a clear verdict rather than a hang: the
			// retry budget for this peer is spent, the run is dead.
			log.Printf("%ssort: peer rank %d lost (retry budget exhausted): %v", label, lost, err)
		} else {
			log.Printf("%ssort: %v", label, err)
		}
		return exitCode(err)
	}
	elapsed := time.Since(start)
	// Snapshots commit in the background; make them durable before
	// claiming success — the next epoch's resume depends on them.
	if err := ck.Wait(); err != nil {
		log.Printf("%scheckpoint: %v", label, err)
		env.finishJob(elapsed, true)
		return exitLocalError
	}
	env.finishJob(elapsed, false)
	log.Printf("%sdone in %v: %d records held locally", label, elapsed.Round(time.Millisecond), len(sorted))
	for _, ph := range metrics.Phases() {
		log.Printf("  %-16s %s", ph.String(), metrics.FmtDur(tm.Get(ph)))
	}
	if exch != nil {
		log.Printf("  %s", exch)
		zc := "no"
		if exch.ZeroCopyUsed() {
			zc = "yes"
		}
		log.Printf("  zero-copy: %s", zc)
	}
	if env.spillStats != nil && env.spillStats.Spilled() {
		log.Printf("  %s", env.spillStats)
	}

	if p.out != "" {
		if err := recordio.WriteFile(p.out, codec.Float64{}, sorted); err != nil {
			log.Print(err)
			return exitLocalError
		}
		log.Printf("%swrote %s", label, p.out)
	}
	return exitOK
}

// spillSortJob is the out-of-core one-shot: this rank's shard of p.in
// streams through core.SortFileShard — sorted runs spill under the
// spill dir, the exchange lands run files, and the resulting block is
// lazily merged straight into the output shard. Peak memory is the
// spill tier's working set, not the shard.
func spillSortJob(c *comm.Comm, p jobParams, sc trace.Scope, env *nodeEnv) int {
	opt := core.DefaultOptions()
	opt.Stable = p.stable
	opt.StageBytes = p.stage
	opt.Span = sc
	opt.Skew = env.skew
	opt.Exchange = env.exch
	opt.Mem = env.gauge
	opt.Spill = env.spill
	opt.Trace = env.tracer
	tm := metrics.NewPhaseTimer()
	opt.Timer = tm

	start := time.Now()
	blk, err := core.SortFileShard(c, p.in, codec.Float64{}, cmpF, opt)
	if err != nil {
		env.finishJob(time.Since(start), true)
		if lost, ok := comm.PeerLost(err); ok {
			log.Printf("spill sort: peer rank %d lost (retry budget exhausted): %v", lost, err)
		} else {
			log.Printf("spill sort: %v", err)
		}
		return exitCode(err)
	}
	defer blk.Remove()
	elapsed := time.Since(start)
	env.finishJob(elapsed, false)
	log.Printf("done in %v: %d records spilled locally", elapsed.Round(time.Millisecond), blk.Records())
	for _, ph := range metrics.Phases() {
		log.Printf("  %-16s %s", ph.String(), metrics.FmtDur(tm.Get(ph)))
	}
	log.Printf("  %s", env.exch)
	log.Printf("  %s", env.spillStats)
	if env.gauge != nil {
		log.Printf("  mem peak: %d of %d bytes", env.gauge.Peak(), env.gauge.Budget())
	}

	if p.out != "" {
		// Through the tier's file writer, like every run: committed by
		// rename, so a crash mid-merge never leaves a truncated shard
		// behind — or written in place when the destination is /dev/null
		// or a pipe, which a rename would replace.
		dst, err := extsort.CreateFile(p.out, 0)
		if err == nil {
			defer dst.Abort()
			if err = blk.Stream(dst); err == nil {
				err = dst.Commit()
			}
		}
		if err != nil {
			log.Print(err)
			return exitLocalError
		}
		log.Printf("wrote %s", p.out)
	}
	return exitOK
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

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
