package topo

import (
	"testing"
	"testing/quick"
)

func TestQuickCoordsRoundTrip(t *testing.T) {
	g := NewChimera(16, 16, 4)
	f := func(q uint16) bool {
		id := int(q) % g.NumQubits()
		r, c, h, k := g.Coords(id)
		return g.Qubit(r, c, h, k) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCouplingSymmetric(t *testing.T) {
	g := NewChimera(8, 8, 4)
	f := func(a, b uint16) bool {
		qa, qb := int(a)%g.NumQubits(), int(b)%g.NumQubits()
		return g.Coupled(qa, qb) == g.Coupled(qb, qa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLineQubitsBelongToLine(t *testing.T) {
	g := NewChimera(12, 10, 4)
	f := func(line, pos uint8) bool {
		vl := int(line) % g.NumVerticalLines()
		r := int(pos) % g.M
		if g.VerticalLineOf(g.VerticalLineQubit(vl, r)) != vl {
			return false
		}
		hl := int(line) % g.NumHorizontalLines()
		c := int(pos) % g.N
		return g.HorizontalLineOf(g.HorizontalLineQubit(hl, c)) == hl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
