package main

import (
	"math"
	"time"
)

// The reference host's speed drifts by up to ~25% over minutes (other
// tenants share its CPUs), and every hybrid and serve figure is CPU-bound, so
// raw times of one commit spread more between runs than a regression bound
// allows. speedProbe measures the host's current speed with a fixed workload
// written here, in the benchmark, and never in the program: a Metropolis
// annealing sweep over a fixed sparse Ising model, the same kind of work as
// the program's sampler emulator and embedding search. The host's speed
// switches between a fast and a slow state within seconds, so one run samples
// the probe many times, always in a quiet process right after a garbage
// collection: before every verdict of a serial loop. Those loops' end-to-end
// times are reported at the reference host's speed, raw time × refProbeMs ÷
// mean probe time; a change to the program moves them, a change in host speed
// mostly does not.

// refProbeMs is the probe's typical mean time on the reference host (2-vCPU
// Xeon VM). It only fixes the unit of the scaled times.
const refProbeMs = 7.5

const (
	probeSpins  = 4096
	probeDegree = 6
	probeSweeps = 60
)

type speedProbe struct {
	field   []float64
	nbr     []int32 // probeDegree neighbours per spin
	weight  []float64
	spin    []float64
	samples []float64 // probe times, ms
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		field:  make([]float64, probeSpins),
		nbr:    make([]int32, probeSpins*probeDegree),
		weight: make([]float64, probeSpins*probeDegree),
		spin:   make([]float64, probeSpins),
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range p.field {
		p.field[i] = unit(&rng) - 0.5
	}
	for k := range p.nbr {
		p.nbr[k] = int32(next(&rng) % probeSpins)
		p.weight[k] = 2*unit(&rng) - 1
	}
	return p
}

// measure times reps annealing runs. It allocates nothing, so it neither
// triggers nor assists the program's garbage collection.
func (p *speedProbe) measure(reps int) {
	for r := 0; r < reps; r++ {
		t := time.Now()
		p.anneal()
		p.samples = append(p.samples, ms(time.Since(t)))
	}
}

// anneal runs probeSweeps Metropolis sweeps from the all-up state with a
// fixed random stream, so every run does exactly the same work.
func (p *speedProbe) anneal() float64 {
	for i := range p.spin {
		p.spin[i] = 1
	}
	rng := uint64(0x2545f4914f6cdd1d)
	for s := 0; s < probeSweeps; s++ {
		beta := 0.1 + 3*float64(s)/probeSweeps
		for i := 0; i < probeSpins; i++ {
			h := p.field[i]
			for k := i * probeDegree; k < (i+1)*probeDegree; k++ {
				h += p.weight[k] * p.spin[p.nbr[k]]
			}
			if dE := 2 * p.spin[i] * h; dE <= 0 || unit(&rng) < math.Exp(-beta*dE) {
				p.spin[i] = -p.spin[i]
			}
		}
	}
	var m float64
	for _, s := range p.spin {
		m += s
	}
	return m
}

// probeMs is the mean probe time over every measurement so far: the host's
// speed averaged over the time the samples spread over.
func (p *speedProbe) probeMs() float64 {
	var sum float64
	for _, x := range p.samples {
		sum += x
	}
	return sum / float64(len(p.samples))
}

// scale converts raw times of this run to the reference host's speed.
func (p *speedProbe) scale() float64 { return refProbeMs / p.probeMs() }

func next(s *uint64) uint64 {
	*s ^= *s >> 12
	*s ^= *s << 25
	*s ^= *s >> 27
	return *s * 2685821657736338717
}

func unit(s *uint64) float64 { return float64(next(s)>>11) / (1 << 53) }
