package cluster

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/telemetry"
	"sdssort/internal/workload"
)

// scrape fetches one telemetry path and returns the body.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	res, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Errorf("scrape %s: %v", path, err)
		return ""
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Errorf("scrape %s: status %d, %v\n%s", path, res.StatusCode, err, body)
	}
	return string(body)
}

// seriesValue extracts one un-labelled series value from an exposition.
func seriesValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Errorf("series %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Errorf("series %s not in scrape:\n%s", name, body)
	return 0
}

// TestScrapeUnderLoad hammers /metrics from concurrent scrapers while a
// stream of sorts runs, each on a fresh launch, against one shared
// memory gauge and one shared set of exchange counters — the shape a
// long-lived process exports. Counters must never run backwards across
// a scraper's own sequence, and between sorts the gauge must read zero
// through the scrape path, not just through the Go API. Under -race
// this doubles as the proof that scrape-time reads are safe against the
// sort path.
func TestScrapeUnderLoad(t *testing.T) {
	const nSorts = 6
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	gauge := memlimit.New(64 << 20)
	exch := &metrics.ExchangeStats{}
	var done atomic.Int64

	reg := telemetry.NewRegistry()
	exch.Register(reg)
	telemetry.RegisterMem(reg, gauge)
	srv, err := telemetry.NewServer("127.0.0.1:0", reg, telemetry.ServerOptions{
		Health: func() telemetry.Health {
			return telemetry.Health{Status: "ok", Size: topo.Size(), JobsDone: done.Load()}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := seriesValue(t, scrape(t, srv.Addr(), "/metrics"), "sds_exchange_bytes_staged_total")
				if v < last {
					t.Errorf("sds_exchange_bytes_staged_total went backwards: %v -> %v", last, v)
					return
				}
				last = v
			}
		}()
	}

	for i := 0; i < nSorts; i++ {
		data := workload.Uniform(int64(i), 2000+800*i)
		per := len(data) / topo.Size()
		opt := core.DefaultOptions()
		opt.Mem = gauge
		opt.Exchange = exch
		// Options.Mem makes the launcher itself assert the drain.
		outs, err := Gather(topo, Options{Mem: gauge}, func(c *comm.Comm) ([]float64, error) {
			local := slices.Clone(data[c.Rank()*per : (c.Rank()+1)*per])
			return core.Sort(c, local, codec.Float64{}, cmp.Compare[float64], opt)
		})
		if err != nil {
			t.Fatalf("sort %d: %v", i, err)
		}
		if flat := slices.Concat(outs...); len(flat) != per*topo.Size() || !slices.IsSorted(flat) {
			t.Fatalf("sort %d: %d records out, sorted=%v", i, len(flat), slices.IsSorted(flat))
		}
		done.Add(1)
		if v := seriesValue(t, scrape(t, srv.Addr(), "/metrics"), "sds_mem_used_bytes"); v != 0 {
			t.Fatalf("sds_mem_used_bytes = %v between sorts", v)
		}
	}
	close(stop)
	wg.Wait()

	body := scrape(t, srv.Addr(), "/metrics")
	if v := seriesValue(t, body, "sds_exchange_bytes_staged_total"); v <= 0 || v != float64(exch.BytesStaged.Load()) {
		t.Errorf("staged bytes scrape %v, counter %d", v, exch.BytesStaged.Load())
	}
	if v := seriesValue(t, body, "sds_mem_peak_bytes"); v <= 0 {
		t.Errorf("sds_mem_peak_bytes = %v: the sorts never reserved on the shared gauge", v)
	}
	// The health endpoint agrees with the scrape.
	if hb := scrape(t, srv.Addr(), "/healthz"); !strings.Contains(hb, fmt.Sprintf(`"jobs_done": %d`, nSorts)) {
		t.Errorf("/healthz:\n%s", hb)
	}
}
