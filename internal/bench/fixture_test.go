package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// TestBuildSampleFixtureGolden pins the embedded problems BuildSampleFixture
// builds: the sampler benchmarks, BENCH_baseline.json and perfbench's raw
// sample fixtures all read them, so any change to the frontend pipeline that
// moves a coefficient, coupler or chain shows here. The digest is SHA-256 of
// the JSON wire form, which encodes every float exactly.
func TestBuildSampleFixtureGolden(t *testing.T) {
	for _, tc := range []struct {
		seed          int64
		vars, clauses int
		want          string
	}{
		{1, 30, 110, "98abe1b2057b0a6d96f91bf4294b8575a88d1c4531eb2b4854cb118fdf879b51"},
		{1, 8, 24, "8aa34da3689835edd6a529b1459396cd415701035b22279f529fff259b4285a0"},
		{2, 8, 24, "d7fca6e9bf4a9ba8c58d36f5c25352d2b09ae94f9af417720779f4981b93b662"},
		{3, 8, 24, "79c3d70a43c1e8238dbff93226e1b327a76e8bffa51ca690d6602bdce9c0ec93"},
		{4, 8, 24, "a3cd1205967e05cbc3a36e8fa8014c45827004c33394a0190c35cdbb72b57d37"},
	} {
		t.Run(fmt.Sprintf("seed%d/%d-%d", tc.seed, tc.vars, tc.clauses), func(t *testing.T) {
			ep, err := BuildSampleFixture(tc.seed, tc.vars, tc.clauses)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(ep.WireView())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(b)
			if got := hex.EncodeToString(h[:]); got != tc.want {
				t.Fatalf("fixture digest %s, want %s", got, tc.want)
			}
		})
	}
}
