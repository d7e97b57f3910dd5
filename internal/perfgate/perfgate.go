// Package perfgate measures the relative cost of two implementations of one
// operation for the opt-in overhead gates (HYQSAT_PERF_GATE=1) that check.sh
// runs, such as "the Resilient wrapper costs at most 1% over the direct
// backend".
package perfgate

import (
	"slices"
	"time"
)

// roundTime is the wall time one side of one round should take. Long enough
// that timer resolution and a single preemption stay well under 1% of it,
// short enough that many rounds fit in a few seconds.
const roundTime = time.Millisecond

// Overhead times base and cand, each given an iteration count n to run the
// operation n times, over the given number of rounds. Every round times both
// back to back with the same n, in an order that alternates from round to
// round, so drift in clock speed or machine load within a round hits both
// sides and favours neither across rounds. It returns the median over
// rounds of cand's time divided by base's, and the per-round ratios.
//
// Comparing per-round paired ratios, rather than each side's best time over
// separate runs, is what lets a shared host resolve a 1% budget: a noisy
// round moves one ratio, not the verdict.
func Overhead(rounds int, base, cand func(n int)) (median float64, ratios []float64) {
	timeIt := func(f func(int), n int) time.Duration {
		start := time.Now()
		f(n)
		return time.Since(start)
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
