package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

// The layer probes: each calls one layer's public functions on its own,
// with a buffer several times the L2 caches, and reports a rate to set
// against a ceiling measured the same way (memcpy, a raw loopback
// connection, a plain file).

// probeBytes is the working set of every probe: 32 MiB, at least four
// times the L2 caches of the cores in use put together. The L3 a VM
// reports belongs to the host. The result's environment block states
// both sizes.
func probeBytes(quick bool) int {
	if quick {
		return 1 << 20
	}
	return 32 << 20
}

const probeTag = 7

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// readN reads n bytes from r through buf and throws them away.
func readN(r io.Reader, n int, buf []byte) error {
	for n > 0 {
		got, err := r.Read(buf[:min(len(buf), n)])
		n -= got
		if err != nil {
			return err
		}
	}
	return nil
}

// timed runs fn reps times and returns the median duration.
func timed(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func runProbes(cfg config, out map[string]metric) error {
	pr := &prober{cfg: cfg, bytes: probeBytes(cfg.quick), out: out, reps: 3, calls: 1000}
	if cfg.quick {
		pr.calls = 50
	}
	pr.codec()
	pr.sorts()
	if err := pr.comm("probe.comm", func(fn func(*comm.Comm) error) error { return cluster.Run(topo, fn) }); err != nil {
		return fmt.Errorf("probe.comm: %w", err)
	}
	if err := pr.loopback(); err != nil {
		return fmt.Errorf("probe.tcpcomm.loopback: %w", err)
	}
	if err := pr.comm("probe.tcpcomm", launchTCP); err != nil {
		return fmt.Errorf("probe.tcpcomm: %w", err)
	}
	if err := pr.files(); err != nil {
		return fmt.Errorf("probe.recordio: %w", err)
	}
	return nil
}

type prober struct {
	cfg   config
	bytes int
	out   map[string]metric
	reps  int // repeats of a bulk probe
	calls int // repeats of a microsecond-scale call
	// sorted quarters of the uniform data, made by sorts and reused by
	// the pivot-selection probe.
	quarters [][]float64
}

func (p *prober) rate(name string, d time.Duration) {
	p.out[name] = single(mbps(p.bytes, d), "MB/s")
}

func (p *prober) micros(name string, perCall time.Duration) {
	p.out[name] = single(float64(perCall.Nanoseconds())/1e3, "us")
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink int

func (p *prober) codec() {
	src := make([]byte, p.bytes)
	dst := make([]byte, p.bytes)
	for i := range src {
		src[i] = byte(i)
	}
	p.rate("probe.codec.memcpy_mbps", timed(p.reps, func() { copy(dst, src) }))

	// The marshal path: the same records through a codec that does not
	// claim the zero-copy contract, record by record.
	recs := workload.PTF(p.cfg.seed, p.bytes/16)
	marshal := codec.Funcs[codec.PTFRecord]{
		Width: 16, MarshalFn: codec.PTFCodec{}.Marshal, UnmarshFn: codec.PTFCodec{}.Unmarshal,
	}
	wire := dst[:0]
	p.rate("probe.codec.encode_mbps", timed(p.reps, func() { wire = codec.EncodeSlice(marshal, wire[:0], recs) }))
	back := make([]codec.PTFRecord, 0, len(recs))
	p.rate("probe.codec.decode_mbps", timed(p.reps, func() {
		back, _ = codec.DecodeAppend(marshal, back[:0], wire)
	}))
	sink += len(back)

	const views = 1 << 20
	t0 := time.Now()
	for i := 0; i < views; i++ {
		b, _ := codec.View(codec.PTFCodec{}, recs[:1+i&0xff])
		sink += len(b)
	}
	p.out["probe.codec.view_ns"] = single(float64(time.Since(t0).Nanoseconds())/views, "ns")
}

// sorts probes the local kernels: the comparison sorts, the merges, the
// radix pass, and the partition searches over sorted data.
func (p *prober) sorts() {
	data := workload.Uniform(p.cfg.seed, p.bytes/8)
	work := make([]float64, len(data))

	copy(work, data)
	p.rate("probe.psort.sort_mbps", timed(1, func() { psort.Sort(work, cmpFloat) }))
	copy(work, data)
	p.rate("probe.psort.stable_sort_mbps", timed(1, func() { psort.StableSort(work, cmpFloat) }))

	// Four sorted quarters of unsorted data interleave all the way
	// through a merge, as the chunks an exchange delivers do.
	copy(work, data)
	q := len(work) / 4
	for k := 0; k < 4; k++ {
		chunk := work[k*q : (k+1)*q]
		slices.Sort(chunk)
		p.quarters = append(p.quarters, chunk)
	}
	p.rate("probe.psort.kway_merge_mbps", timed(p.reps, func() { sink += len(psort.KWayMerge(p.quarters, cmpFloat)) }))
	p.rate("probe.psort.skew_merge_mbps", timed(p.reps, func() {
		sink += len(psort.SkewAwareParallelMerge(p.quarters, runtime.NumCPU(), false, cmpFloat))
	}))

	particles := workload.Cosmology(p.cfg.seed, p.bytes/32)
	p.rate("probe.radix.lsd_mbps", timed(1, func() { radix.LSDSort(particles, codec.ParticleCodec{}.Uint64Key) }))

	// Both partitions over the same sorted PTF block and the pivots an
	// eight-rank world would pick from it, two of which fall in the
	// duplicated score and so form a replicated run.
	ptf := workload.PTF(p.cfg.seed, p.bytes/16)
	slices.SortFunc(ptf, codec.ComparePTF)
	const ranks = 8
	pg := pivots.RegularSample(ptf, ranks)
	loc := partition.NewStripe(ptf, ranks, codec.ComparePTF)
	runs := partition.Runs(pg, codec.ComparePTF)
	t0 := time.Now()
	for i := 0; i < p.calls; i++ {
		sink += len(partition.Fast(ptf, pg, loc, codec.ComparePTF))
	}
	p.micros("probe.partition.fast_us", time.Since(t0)/time.Duration(p.calls))
	t0 = time.Now()
	for i := 0; i < p.calls; i++ {
		local := partition.LocalDupCounts(ptf, pg, runs, loc)
		counts := make([][]int64, len(runs))
		for k := range counts {
			counts[k] = repeat(local[k], ranks)
		}
		b, _ := partition.Stable(ptf, pg, loc, codec.ComparePTF, ranks/2, counts)
		sink += len(b)
	}
	p.micros("probe.partition.stable_us", time.Since(t0)/time.Duration(p.calls))
}

// comm probes one transport through a four-rank world: the round trip
// of an 8-byte message between ranks 0 and 1, the staged all-to-all
// with the sort's 1 MiB stage, and (in-process only, where it is not
// drowned by the wire) global pivot selection.
func (p *prober) comm(prefix string, launch func(func(*comm.Comm) error) error) error {
	n := topo.Size()
	per := p.bytes / n / n
	withPivots := len(p.quarters) == n && prefix == "probe.comm"
	return launch(func(c *comm.Comm) error {
		me := c.Rank()
		if err := c.Barrier(); err != nil {
			return err
		}
		msg := make([]byte, 8)
		t0 := time.Now()
		for i := 0; i < p.calls; i++ {
			var err error
			switch me {
			case 0:
				if err = c.Send(1, probeTag, msg); err == nil {
					_, err = c.Recv(1, probeTag)
				}
			case 1:
				if _, err = c.Recv(0, probeTag); err == nil {
					err = c.Send(0, probeTag, msg)
				}
			}
			if err != nil {
				return err
			}
		}
		if me == 0 {
			p.micros(prefix+".pingpong_us", time.Since(t0)/time.Duration(p.calls))
		}

		send := make([]byte, per*n)
		recv := make([]byte, per*n)
		counts := repeat(int64(per), n)
		var ds []float64
		for rep := 0; rep < p.reps; rep++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			_, err := c.StagedAlltoallv(comm.StagedOptions{
				StageBytes: stageBytes, SendBytes: counts, RecvBytes: counts,
				Fill: func(dst int, off, n int64) ([]byte, error) {
					lo := int64(dst*per) + off
					return send[lo : lo+n], nil
				},
				Drain: func(src int, off int64, chunk []byte) error {
					copy(recv[int64(src*per)+off:], chunk)
					return nil
				},
			})
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			ds = append(ds, float64(time.Since(t0)))
		}
		if me == 0 {
			p.rate(prefix+".alltoall_mbps", time.Duration(median(ds)))
		}

		if !withPivots {
			return nil
		}
		ds = ds[:0]
		for i := 0; i < p.calls/10; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			local := pivots.RegularSample(p.quarters[me], n)
			if _, err := pivots.SelectGlobal(c, local, codec.Float64{}, cmpFloat); err != nil {
				return err
			}
			ds = append(ds, float64(time.Since(t0)))
		}
		if me == 0 {
			p.micros("probe.pivots.select_us", time.Duration(median(ds)))
		}
		return nil
	})
}

// loopback is the ceiling for the TCP transport: raw connections on
// 127.0.0.1, one per rank as in a round of the pairwise exchange, each
// written and read in stage-sized pieces with no framing. Every
// connection moves a few stages before the clock starts, as the
// transport's connections have by the time a sort uses them.
func (p *prober) loopback() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	n := topo.Size()
	const warm = 4 * stageBytes
	var ready sync.WaitGroup
	ready.Add(2 * n)
	start := make(chan struct{})
	errs := make(chan error, 2*n) // one slot per goroutine started below
	move := func(open func() (net.Conn, error), step func(net.Conn, []byte) error) {
		conn, err := open()
		if err == nil {
			defer conn.Close()
			buf := make([]byte, stageBytes)
			for done := 0; done < warm && err == nil; done += len(buf) {
				err = step(conn, buf)
			}
			ready.Done()
			<-start
			for done := 0; done < p.bytes && err == nil; done += len(buf) {
				err = step(conn, buf)
			}
		} else {
			ready.Done()
		}
		errs <- err
	}
	for i := 0; i < n; i++ {
		go move(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
			func(c net.Conn, buf []byte) error { _, err := c.Write(buf); return err })
		go move(ln.Accept, func(c net.Conn, buf []byte) error { return readN(c, len(buf), buf) })
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	for i := 0; i < 2*n; i++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	p.out["probe.tcpcomm.loopback_mbps"] = single(mbps(n*p.bytes, time.Since(t0)), "MB/s")
	return err
}

// files probes the spill tier's record files against a plain file of
// the same size in the same directory. Both go through the page cache.
func (p *prober) files() error {
	dir := filepath.Join(p.cfg.outDir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "plain")
	buf := make([]byte, stageBytes)
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for n := 0; n < p.bytes && err == nil; n += len(buf) {
		_, err = f.Write(buf)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	err = readN(f, p.bytes, buf)
	f.Close()
	if err != nil {
		return err
	}
	// Written once and read once: twice the bytes.
	p.out["probe.recordio.disk_mbps"] = single(mbps(2*p.bytes, time.Since(t0)), "MB/s")

	recs := workload.Uniform(p.cfg.seed, p.bytes/8)
	path = filepath.Join(dir, "records")
	t0 = time.Now()
	if err := recordio.WriteFile(path, codec.Float64{}, recs); err != nil {
		return err
	}
	p.rate("probe.recordio.write_mbps", time.Since(t0))
	t0 = time.Now()
	back, err := recordio.ReadFile(path, codec.Float64{})
	if err != nil {
		return err
	}
	p.rate("probe.recordio.read_mbps", time.Since(t0))
	sink += len(back)
	return nil
}
