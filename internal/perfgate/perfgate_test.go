package perfgate

import "testing"

var sink uint64

// spin does k units of integer work.
func spin(k int) {
	x := sink
	for i := 0; i < k; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink = x
}

// TestOverheadMeasuresRatio checks that the median paired ratio reports a
// doubled workload as about 2 and an identical one as about 1. The bounds
// are loose: this pins the arithmetic and the pairing, not the host's noise.
func TestOverheadMeasuresRatio(t *testing.T) {
	base := func(n int) { spin(1000 * n) }
	double := func(n int) { spin(2000 * n) }
	if m, _ := Overhead(101, base, double); m < 1.5 || m > 2.5 {
		t.Fatalf("doubled work measured at %.3fx", m)
	}
	if m, _ := Overhead(101, base, base); m < 0.8 || m > 1.25 {
		t.Fatalf("identical work measured at %.3fx", m)
	}
}
