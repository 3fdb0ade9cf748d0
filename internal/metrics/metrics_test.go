package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPhaseTimerAccumulation(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	tm := &PhaseTimer{now: clock}

	tm.Start(PhasePivotSelection)
	now = now.Add(10 * time.Millisecond)
	tm.Start(PhaseExchange) // closes pivot selection
	now = now.Add(5 * time.Millisecond)
	tm.Stop()

	if got := tm.Get(PhasePivotSelection); got != 10*time.Millisecond {
		t.Fatalf("pivot: %v", got)
	}
	if got := tm.Get(PhaseExchange); got != 5*time.Millisecond {
		t.Fatalf("exchange: %v", got)
	}
	tm.Stop() // double stop is a no-op
	if tm.Get(PhaseExchange) != 5*time.Millisecond {
		t.Fatal("double Stop changed totals")
	}
	tm.Add(PhaseOther, time.Millisecond)
	if tm.Get(PhaseOther) != time.Millisecond {
		t.Fatal("Add failed")
	}
}

func TestMergeMax(t *testing.T) {
	a := NewPhaseTimer()
	a.Add(PhaseExchange, 5*time.Millisecond)
	b := NewPhaseTimer()
	b.Add(PhaseExchange, 9*time.Millisecond)
	b.Add(PhaseOther, time.Millisecond)
	m := MergeMax([]*PhaseTimer{a, b})
	if m[PhaseExchange] != 9*time.Millisecond || m[PhaseOther] != time.Millisecond {
		t.Fatalf("got %v", m)
	}
}

func TestRDFA(t *testing.T) {
	if got := RDFA([]int{10, 10, 10, 10}); got != 1.0 {
		t.Fatalf("balanced: %v", got)
	}
	if got := RDFA([]int{40, 0, 0, 0}); got != 4.0 {
		t.Fatalf("collapsed: %v", got)
	}
	if !math.IsInf(RDFA(nil), 1) {
		t.Fatal("empty loads should be +Inf")
	}
	if !math.IsInf(RDFA([]int{0, 0}), 1) {
		t.Fatal("zero loads should be +Inf")
	}
}

func TestThroughputAndFormat(t *testing.T) {
	bps := Throughput(1<<30, time.Second)
	if bps != float64(1<<30) {
		t.Fatalf("got %v", bps)
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("zero elapsed should be 0")
	}
	if s := FormatThroughput(float64(2) * (1 << 40) / 60); !strings.Contains(s, "TB/min") {
		t.Fatalf("big throughput format: %s", s)
	}
	if s := FormatThroughput(float64(5 << 20)); !strings.Contains(s, "MB/s") {
		t.Fatalf("small throughput format: %s", s)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "Demo", Headers: []string{"a", "long-header"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	if !strings.Contains(s, "== Demo ==") || !strings.Contains(s, "long-header") {
		t.Fatalf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FmtDur(1500 * time.Microsecond); got != "1.500ms" {
		t.Fatalf("FmtDur: %s", got)
	}
	if got := FmtRDFA(math.Inf(1)); got != "inf" {
		t.Fatalf("FmtRDFA inf: %s", got)
	}
	if got := FmtRDFA(1.23456); got != "1.2346" {
		t.Fatalf("FmtRDFA: %s", got)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseLocalSort.String() != "Local sort" {
		t.Fatal("local-sort phase name")
	}
	if PhasePivotSelection.String() != "Pivot selection" {
		t.Fatal("phase name")
	}
	if Phase(99).String() != "Phase(99)" {
		t.Fatal("unknown phase name")
	}
	if len(Phases()) != 5 {
		t.Fatal("phase list")
	}
	if Phases()[0] != PhaseLocalSort {
		t.Fatal("local sort must lead the reporting order")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := Table{Headers: []string{"a", "b"}}
	tbl.AddRow("1", "x,y") // comma must be quoted
	var buf strings.Builder
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if buf.String() != want {
		t.Fatalf("got %q want %q", buf.String(), want)
	}
}
