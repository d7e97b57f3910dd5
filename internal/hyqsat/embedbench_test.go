package hyqsat

import "testing"

// TestEmbedBenchFixture sanity-checks the bench harness on both topologies:
// the measured embedding pass must embed the same clauses on every run of
// identical input.
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
		if again := eb.ColdFast(); again != cold {
			t.Fatalf("%s: second run embedded %d clauses, first %d", topology, again, cold)
		}
	}
}
