package hyqsat

import "testing"

// TestEmbedBenchFixture sanity-checks the bench harness on both topologies:
// the measured frontend pass must embed the same clauses on every run of
// identical input.
func TestEmbedBenchFixture(t *testing.T) {
	for _, topology := range []string{"chimera", "pegasus"} {
		eb, err := NewEmbedBench(topology)
		if err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		first := eb.Pass()
		if again := eb.Pass(); again != first {
			t.Fatalf("%s: second pass embedded %d clauses, first %d", topology, again, first)
		}
	}
}
