package anneal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestSampleGolden pins the read sets Sample returns, and the QACallEvents
// it traces, to SHA-256 digests: per (seed, reads, workers) cell, two
// successive Sample calls on one sampler (so the call-index stream is
// pinned too), hashed as best index, then per read the chain-break count,
// the energy's IEEE bits and the node values in node order, then the JSON
// of every traced event. Any change to the sweep kernel, the per-read RNG
// derivation, the read fan-out or the trace payload shows here.
func TestSampleGolden(t *testing.T) {
	ep := testEmbeddedProblem(t, 31, 8)
	want := map[string]string{
		"seed1/reads1": "f6a3c262cd69aece93c2ea54d35b6a9498bb13ca79989ac7d070458e5428d123",
		"seed1/reads8": "d4bbd221291b4385c9f4b059dedab3a535494ab1fb88b039a571e3036b8385a6",
		"seed2/reads1": "547c91e9d3d38f3c471aa2075dd49f9ca1569069ef016f90e971e7b47fa50cef",
		"seed2/reads8": "e83921e332d6bff3091e1beba923c515c84a34a49dd9d34b52fccb0e0a321578",
		"seed3/reads1": "6480b71100a1bc500e2e689c4350a5eef753f453efcd01f8e5f5ac9c6ac4b702",
		"seed3/reads8": "ec8d138097dfe4ce42fb2a64fe2bb5bea843ee8573cc8aa392ee2e4ad9c54159",
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, reads := range []int{1, 8} {
			key := fmt.Sprintf("seed%d/reads%d", seed, reads)
			for _, workers := range []int{1, 4} {
				var sink captureTracer
				s := NewSampler(DefaultSchedule(), DWave2000QNoise, seed)
				s.Workers = workers
				s.Trace = &sink
				s.Timing = DWave2000QTiming()
				h := sha256.New()
				var buf [8]byte
				put := func(x uint64) {
					binary.LittleEndian.PutUint64(buf[:], x)
					h.Write(buf[:])
				}
				for call := 0; call < 2; call++ {
					rs := s.Sample(ep, reads)
					put(uint64(rs.Best))
					for _, sm := range rs.Samples {
						put(uint64(sm.BrokenChains))
						put(math.Float64bits(sm.HardwareEnergy))
						nodes := make([]int, 0, len(sm.NodeValues))
						for n := range sm.NodeValues {
							nodes = append(nodes, n)
						}
						sort.Ints(nodes)
						for _, n := range nodes {
							v := uint64(n) << 1
							if sm.NodeValues[n] {
								v |= 1
							}
							put(v)
						}
					}
				}
				for _, ev := range sink.events {
					b, err := json.Marshal(ev)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s workers=%d: digest %s, want %s", key, workers, got, want[key])
				}
			}
		}
	}
}
