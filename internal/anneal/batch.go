package anneal

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hyqsat/internal/obs"
)

// SampleBatch draws reads[i] samples from each member of eps as one batched
// device access: the members are co-tiled onto disjoint regions of the chip
// (the qbatch packer's job), the chip is programmed once, and every read
// cycle reads all members out together — which is why the modelled device
// time of the whole batch is BatchAccessTime(reads), not the sum of solo
// accesses.
//
// Determinism contract: a k-member batch takes the next k call indices,
// member i the i-th, and read j of a member draws from its own RNG stream
// derived from (seed, call, j). Because co-tiled members share no coupler,
// the merged program's distribution factorises over members exactly, so
// sampling each member with its own stream IS sampling the merged program —
// and the returned read sets are bit-identical to k sequential Sample calls
// (one-member batches) at the same seeds. (A single stream over the merged
// spins would be physically equivalent but would destroy that equality, and
// per-member diagnostics like chain breaks with it.)
//
// Tracing: one QACallEvent is emitted per member, carrying the member's call
// index and its SplitAccessTime share in DeviceNs — the per-member events of
// one batch sum exactly to the single program's BatchAccessTime, so offline
// consumers (tracereport, the quality tracker) never double-count device
// time. BatchSize marks the events of a batch of more than one member.
//
// SampleBatch is safe to call from multiple goroutines; the member read work
// of one call is fanned across a single worker pool bounded by Workers.
func (s *Sampler) SampleBatch(eps []*EmbeddedProblem, reads []int) []ReadSet {
	k := len(eps)
	if k == 0 {
		return nil
	}
	if len(reads) != k {
		panic("anneal: SampleBatch needs one read count per member")
	}
	clamped := make([]int, k)
	items := 0
	for i, r := range reads {
		if r <= 0 {
			r = 1
		}
		clamped[i] = r
		items += r
	}
	base := s.calls.Add(int64(k)) - int64(k)

	// Flatten the (member, read) work items: item j of member i occupies the
	// contiguous slot starting at itemStart[i]. Each item derives its RNG
	// stream from (seed, base+i, j), so values match solo Sample calls.
	sets := make([]ReadSet, k)
	itemStart := make([]int, k+1)
	for i, r := range clamped {
		sets[i] = ReadSet{Samples: make([]Sample, r)}
		itemStart[i+1] = itemStart[i] + r
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > items {
		workers = items
	}
	runItem := func(item int, scr *Scratch) {
		// Binary-search-free member lookup: members are few, scan forward.
		m := 0
		for itemStart[m+1] <= item {
			m++
		}
		read := item - itemStart[m]
		s.sampleRead(eps[m], base+int64(m), read, scr, &sets[m].Samples[read])
	}
	if workers <= 1 {
		scr := s.takeScratch()
		for item := 0; item < items; item++ {
			runItem(item, scr)
		}
		s.releaseScratch(scr)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scr := s.takeScratch()
				defer s.releaseScratch(scr)
				for {
					item := int(next.Add(1) - 1)
					if item >= items {
						return
					}
					runItem(item, scr)
				}
			}()
		}
		wg.Wait()
	}

	for i := range sets {
		best := 0
		samples := sets[i].Samples
		for j := 1; j < len(samples); j++ {
			if samples[j].HardwareEnergy < samples[best].HardwareEnergy {
				best = j
			}
		}
		sets[i].Best = best
	}

	if s.Trace != nil && s.Trace.Enabled() {
		shares := s.Timing.SplitAccessTime(clamped)
		batchSize := 0
		if k > 1 {
			batchSize = k
		}
		for i := range sets {
			samples := sets[i].Samples
			energies := make([]float64, len(samples))
			broken := make([]int, len(samples))
			for j := range samples {
				energies[j] = samples[j].HardwareEnergy
				broken[j] = samples[j].BrokenChains
			}
			s.Trace.Emit(obs.QACallEvent{
				Call:         base + int64(i),
				Reads:        clamped[i],
				Energies:     energies,
				BrokenChains: broken,
				Chains:       len(eps[i].chainNodes),
				MaxChainLen:  eps[i].maxChainLen,
				ChainQubits:  eps[i].chainQubits,
				Best:         sets[i].Best,
				BatchSize:    batchSize,
				DeviceNs:     shares[i].Nanoseconds(),
			})
		}
	}
	return sets
}
