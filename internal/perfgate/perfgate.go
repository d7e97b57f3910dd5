// Package perfgate measures the relative cost of two implementations of one
// operation for the opt-in overhead gates (HYQSAT_PERF_GATE=1) that check.sh
// runs, such as "the Resilient wrapper costs at most 1% over the direct
// backend".
package perfgate

import (
	"slices"
	"time"
)

// roundTime is the CPU time one side of one round should take. Long enough
// that the clock's microsecond resolution stays well under 1% of it, short
// enough that many rounds fit in a few seconds.
const roundTime = time.Millisecond

// Overhead times base and cand, each given an iteration count n to run the
// operation n times, over the given number of rounds. Each side is timed,
// and n calibrated, by the process's CPU time (cpuTime; wall time off
// Linux), so a CPU of the host that another process takes while a side runs
// stretches neither side. Every round times both back to back with the same
// n, in an order that alternates from round to round, so drift in clock
// speed or cache pressure within a round hits both sides and favours neither
// across rounds. It returns the median over rounds of cand's time divided by
// base's, and the per-round ratios.
//
// Comparing per-round paired ratios, rather than each side's best time over
// separate runs, is what lets a shared host resolve a 1% budget: a noisy
// round moves one ratio, not the verdict. The ratio bounds CPU work, not
// latency: time a side spends blocked, waiting or handing off to another
// goroutine adds nothing to it.
func Overhead(rounds int, base, cand func(n int)) (median float64, ratios []float64) {
	timeIt := func(f func(int), n int) time.Duration {
		start := cpuTime()
		f(n)
		return cpuTime() - start
	}
	base(1) // warm both sides before calibrating
	cand(1)
	n := 1
	for timeIt(base, n) < roundTime {
		n *= 2
	}
	ratios = make([]float64, rounds)
	for r := range ratios {
		var b, c time.Duration
		if r%2 == 0 {
			b = timeIt(base, n)
			c = timeIt(cand, n)
		} else {
			c = timeIt(cand, n)
			b = timeIt(base, n)
		}
		ratios[r] = float64(c) / float64(b)
	}
	sorted := slices.Clone(ratios)
	slices.Sort(sorted)
	return sorted[rounds/2], ratios
}
