package hyqsat

import "testing"

// TestEmbedBenchFixture sanity-checks the bench harness on both topologies:
// every measured path must produce a usable result on identical input.
func TestEmbedBenchFixture(t *testing.T) {
	for _, topology := range []string{"chimera", "pegasus"} {
		eb, err := NewEmbedBench(topology, 16)
		if err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		cold := eb.ColdFast()
		if cold == 0 {
			t.Fatalf("%s: cold Fast embedded nothing", topology)
		}
		if got := eb.CacheHit(); got != cold {
			t.Fatalf("%s: cache hit returned %d embedded clauses, cold Fast %d", topology, got, cold)
		}
	}
}
