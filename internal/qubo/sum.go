package qubo

import "slices"

// Sums is dense storage for the summed objective of an encoding (Eq. 5):
// per-node linear coefficients and per-edge quadratic ones over the sorted
// edges the sub-clause objectives couple. A zero coefficient is an absent
// term. Sub-clauses are added in order, so every key's contributions are
// summed in the same order on every call and every coefficient is
// reproducible bit for bit.
//
// The zero value is ready to use; a caller that programs an encoding per
// iteration keeps one Sums and reuses its storage.
type Sums struct {
	n      int       // node count of the encoding summed
	offset float64   // constant term
	lin    []float64 // node → linear coefficient
	keys   []int     // distinct quadratic keys U·n+V, ascending
	quad   []float64 // quadratic coefficient per key
	slot   []int32   // per quadratic term of the sub-clauses, in order: index into keys
	h      []float64 // Ising fields, returned as the model's H
}

// edge decodes a quadratic key.
func (s *Sums) edge(key int) Edge { return Edge{key / s.n, key % s.n} }

// sum lays out e's quadratic keys and sums its objectives at their current
// α coefficients.
func (s *Sums) sum(e *Encoding) {
	s.n = e.NumNodes()
	s.keys = s.keys[:0]
	for i := range e.Sub {
		for _, t := range e.Sub[i].Quad() {
			s.keys = append(s.keys, t.Edge.U*s.n+t.Edge.V)
		}
	}
	slices.Sort(s.keys)
	s.keys = slices.Compact(s.keys)
	s.slot = s.slot[:0]
	for i := range e.Sub {
		for _, t := range e.Sub[i].Quad() {
			j, _ := slices.BinarySearch(s.keys, t.Edge.U*s.n+t.Edge.V)
			s.slot = append(s.slot, int32(j))
		}
	}
	s.resum(e)
}

// resum re-sums e's objectives over the layout of the last sum, which must
// have been taken over the same encoding (only α may have changed).
func (s *Sums) resum(e *Encoding) {
	s.offset = 0
	s.lin = zeroed(s.lin, s.n)
	s.quad = zeroed(s.quad, len(s.keys))
	t := 0
	for i := range e.Sub {
		sc := &e.Sub[i]
		s.offset += sc.Alpha * sc.Offset
		for _, l := range sc.Linear() {
			s.lin[l.Node] += sc.Alpha * l.C
		}
		for _, q := range sc.Quad() {
			s.quad[s.slot[t]] += sc.Alpha * q.C
			t++
		}
	}
}

// zeroed returns buf resized to n zeros, reusing its storage.
func zeroed(buf []float64, n int) []float64 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// DStar is the paper's d* (Eq. 6) of the last sum: the largest of |B_i|/2
// over linear coefficients and |J_ij| over quadratic ones. It is the factor
// normalisation divides by, and hence the quantity that shrinks the energy
// gap.
func (s *Sums) DStar() float64 {
	d := 0.0
	for _, c := range s.lin {
		d = max(d, abs(c)/2)
	}
	for _, c := range s.quad {
		d = max(d, abs(c))
	}
	return d
}

// ising returns the sum normalised by its d* and converted to an Ising
// model, whose H is s's storage. The floating-point operations are those of
// the reference map algebra (TestProgramMatchesPolyAlgebra), in the same
// order, so the result is bit-identical to it.
func (s *Sums) ising() *Ising {
	// Normalisation multiplies by 1/d* and adds the product to a zero
	// coefficient; a zero d* leaves the sum as is.
	d := s.DStar()
	norm := func(c float64) float64 { return c }
	if d != 0 {
		inv := 1 / d
		norm = func(c float64) float64 { return 0 + inv*c }
	}
	// Ising form: x = (1+s)/2, linear terms in ascending node order, then
	// quadratic terms in ascending edge order.
	offset := norm(s.offset)
	s.h = zeroed(s.h, s.n)
	nJ := 0
	for i, c := range s.lin {
		if c == 0 {
			continue
		}
		if c = norm(c); c != 0 {
			offset += c / 2
			s.h[i] += c / 2
		}
	}
	for j, c := range s.quad {
		if c == 0 {
			continue
		}
		if c = norm(c); c != 0 {
			e := s.edge(s.keys[j])
			offset += c / 4
			s.h[e.U] += c / 4
			s.h[e.V] += c / 4
			nJ++
		}
	}
	is := &Ising{Offset: offset, H: s.h, J: make([]QuadTerm, 0, nJ)}
	for j, c := range s.quad {
		if c == 0 {
			continue
		}
		if c = norm(c); c != 0 && c/4 != 0 {
			is.J = append(is.J, QuadTerm{s.edge(s.keys[j]), c / 4})
		}
	}
	return is
}
