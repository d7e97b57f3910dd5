package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtSscan parses a float cell.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// tiny returns the smallest usable configuration for fast unit tests.
func tiny() Config {
	return Config{ProblemsPerFamily: 1, Queues: 1, Samples: 20, Seed: 1, EmbedTimeoutSec: 5}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.ProblemsPerFamily == 0 || c.Queues == 0 || c.Samples == 0 || c.EmbedTimeoutSec == 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.Add("1", 2.5)
	r.Add("longer", 3)
	r.Note("hello %d", 7)
	out := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "longer", "2.50", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeReductions(t *testing.T) {
	s := summarizeReductions([]float64{1, 2, 4})
	if math.Abs(s.Avg-7.0/3) > 1e-12 {
		t.Fatalf("avg %v", s.Avg)
	}
	if math.Abs(s.Geomean-2) > 1e-12 {
		t.Fatalf("geomean %v", s.Geomean)
	}
	if s.Max != 4 || s.Min != 1 {
		t.Fatalf("max/min %v/%v", s.Max, s.Min)
	}
	if z := summarizeReductions(nil); z.Avg != 0 {
		t.Fatal("empty input should give zeros")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if p := pearson(x, x); math.Abs(p-1) > 1e-12 {
		t.Fatalf("self correlation %v", p)
	}
	y := []float64{4, 3, 2, 1}
	if p := pearson(x, y); math.Abs(p+1) > 1e-12 {
		t.Fatalf("anti correlation %v", p)
	}
	if pearson(x, []float64{1}) != 0 {
		t.Fatal("length mismatch should give 0")
	}
	if pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Fatal("zero variance should give 0")
	}
}

func TestFig5RunsAndSumsTo100(t *testing.T) {
	rep := Fig5(tiny())
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	total := 0.0
	for _, row := range rep.Rows {
		var v float64
		if _, err := sscanF(row[3], &v); err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		total += v
	}
	if math.Abs(total-100) > 1.0 {
		t.Fatalf("quintile shares sum to %v, want ≈100", total)
	}
	// Top quintile should dominate (the paper's 42% observation).
	var top, bottom float64
	sscanF(rep.Rows[0][3], &top)
	sscanF(rep.Rows[4][3], &bottom)
	if top <= bottom {
		t.Fatalf("top quintile %v ≤ bottom %v", top, bottom)
	}
}

func TestFig8ProducesPartition(t *testing.T) {
	rep := Fig8(tiny())
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "confidence partition") {
			found = true
		}
	}
	if !found {
		t.Fatal("no partition note")
	}
}

func TestFig13Shapes(t *testing.T) {
	cfg := tiny()
	rep := Fig13(cfg)
	if len(rep.Rows) != 6*3 {
		t.Fatalf("%d rows, want 18", len(rep.Rows))
	}
	// The fast scheme must succeed at the smallest size.
	if rep.Rows[0][1] != "hyqsat-fast" || rep.Rows[0][3] != "100.00" {
		t.Fatalf("fast scheme failed at 10 clauses: %v", rep.Rows[0])
	}
}

func TestByIDCoversAll(t *testing.T) {
	for _, id := range []string{"fig1", "fig5", "fig8", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "table1", "table2", "table3",
		"ablation-chain", "ablation-schedule", "ablation-warmup", "ablation-adjust"} {
		if ByID(id) == nil {
			t.Fatalf("ByID(%q) = nil", id)
		}
	}
	if ByID("bogus") != nil {
		t.Fatal("unknown id resolved")
	}
}

// sscanF parses a float cell.
func sscanF(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}
