package main

import "time"

// The host this benchmark runs on is a small guest on a shared machine,
// and its neighbours slow it by up to a third for minutes at a time
// without any steal time showing: wall time and CPU time of a sort grow
// together. A run of twenty seconds can fall wholly inside such a spell,
// so nothing measured inside the run can average it away. What can be
// done is to measure the spell: beside every sort, rank 0 times a fixed
// piece of single-threaded arithmetic while the other ranks are idle, and
// the run's timings are scaled by how much slower than on a quiet host
// that reference ran. README.md has the measurements behind this.

// refSteps sizes the reference kernel; refQuiet is how long it takes on
// this class of host when nothing disturbs it.
const (
	refSteps = 12_000_000
	refQuiet = 24500 * time.Microsecond
)

var refSink uint64

// hostTime times the reference kernel once: refSteps xorshift steps,
// no memory traffic, no allocation, one thread.
func hostTime() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	refSink += acc
	return time.Since(t0)
}

// slowdown is how much slower than a quiet host the reference ran over
// a run: 1.0 on a quiet host, 1.3 in a bad spell. It takes the lower
// quartile of the reference times, as the timings it scales take the
// quartile on their good side.
func slowdown(hosts []float64) float64 {
	if len(hosts) == 0 {
		return 1
	}
	return quantile(hosts, 0.25) / refQuiet.Seconds()
}
