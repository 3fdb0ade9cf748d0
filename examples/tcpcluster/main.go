// TCP cluster: run SDS-Sort across OS processes over the TCP transport
// (the "custom RPC exchange") instead of goroutines in one process.
//
// This launcher forks itself once per rank, so a single command
// demonstrates the distributed configuration end to end:
//
//	go run ./examples/tcpcluster            # 4 ranks over localhost TCP
//	go run ./examples/tcpcluster -ranks 8
//
// For genuinely multi-machine runs, use cmd/sdsnode directly with a
// shared -registry address.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"time"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/workload"
)

func main() {
	var (
		ranks   = flag.Int("ranks", 4, "number of worker processes")
		perRank = flag.Int("n", 50_000, "records per rank")
		// Internal flags used by the forked children.
		childRank = flag.Int("child-rank", -1, "internal")
		registry  = flag.String("registry", "", "internal")
	)
	flag.Parse()

	if *childRank >= 0 {
		runChild(*childRank, *ranks, *perRank, *registry)
		return
	}

	// Parent: pick a registry port and fork one child per rank.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	fmt.Printf("launching %d worker processes, registry %s\n", *ranks, addr)
	start := time.Now()
	cmds := make([]*exec.Cmd, *ranks)
	for r := 0; r < *ranks; r++ {
		cmd := exec.Command(os.Args[0],
			"-child-rank", fmt.Sprint(r),
			"-ranks", fmt.Sprint(*ranks),
			"-n", fmt.Sprint(*perRank),
			"-registry", addr)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("rank %d failed: %v", r, err)
		}
	}
	fmt.Printf("all %d processes finished in %v\n", *ranks, time.Since(start).Round(time.Millisecond))
}

func runChild(rank, size, perRank int, registry string) {
	tr, err := tcpcomm.New(tcpcomm.Config{
		Rank: rank, Size: size, Node: rank, // one simulated node per process
		Registry: registry, Timeout: 30 * time.Second,
	})
	if err != nil {
		log.Fatalf("rank %d bootstrap: %v", rank, err)
	}
	defer tr.Close()
	c := comm.New(tr)

	data := workload.ZipfKeys(int64(rank+1), perRank, 1.4, workload.DefaultZipfUniverse)
	start := time.Now()
	sorted, err := core.Sort(c, data, codec.Float64{}, codec.CompareOrdered[float64], core.DefaultOptions())
	if err != nil {
		log.Fatalf("rank %d sort: %v", rank, err)
	}
	lo, hi := "-", "-"
	if len(sorted) > 0 {
		lo = fmt.Sprintf("%.0f", sorted[0])
		hi = fmt.Sprintf("%.0f", sorted[len(sorted)-1])
	}
	fmt.Printf("  rank %d: %6d records in value range [%s, %s] after %v\n",
		rank, len(sorted), lo, hi, time.Since(start).Round(time.Millisecond))
	if err := c.Barrier(); err != nil {
		log.Fatalf("rank %d: final barrier: %v", rank, err)
	}
}
