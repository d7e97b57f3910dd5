// Package gen generates the benchmark workloads of the paper's evaluation
// (Table I): uniform random 3-SAT at the phase-transition ratio (the AI
// families, SATLIB "uf" style), flat graph-colouring (GC), circuit fault
// analysis (CFA), blocks-world planning (BP), inductive inference (II),
// integer factorisation via multiplier circuits (IF), and cryptographic
// comparator-adder equivalence (CRY). All generators are deterministic per
// seed and emit CNF; k-literal clauses are produced where natural and can be
// lowered with cnf.To3CNF.
package gen

import (
	"fmt"

	"hyqsat/internal/cnf"
)

// Circuit builds combinational logic and emits its Tseitin CNF encoding.
// Wires are represented as literals; gate outputs are fresh variables
// constrained to equal the gate function.
type Circuit struct {
	F      *cnf.Formula
	Inputs []cnf.Lit
}

// NewCircuit returns an empty circuit over a fresh formula.
func NewCircuit() *Circuit { return &Circuit{F: cnf.New(0)} }

// Input allocates a primary input wire.
func (c *Circuit) Input() cnf.Lit {
	l := cnf.Pos(c.F.NewVar())
	c.Inputs = append(c.Inputs, l)
	return l
}

// ConstTrue returns a wire constrained to 1.
func (c *Circuit) ConstTrue() cnf.Lit {
	l := cnf.Pos(c.F.NewVar())
	c.F.AddClause(cnf.Clause{l})
	return l
}

// ConstFalse returns a wire constrained to 0.
func (c *Circuit) ConstFalse() cnf.Lit {
	return c.ConstTrue().Not()
}

// And emits y ↔ a∧b and returns y.
func (c *Circuit) And(a, b cnf.Lit) cnf.Lit {
	y := cnf.Pos(c.F.NewVar())
	c.F.AddClause(cnf.Clause{y.Not(), a})
	c.F.AddClause(cnf.Clause{y.Not(), b})
	c.F.AddClause(cnf.Clause{y, a.Not(), b.Not()})
	return y
}

// Or emits y ↔ a∨b and returns y.
func (c *Circuit) Or(a, b cnf.Lit) cnf.Lit {
	return c.And(a.Not(), b.Not()).Not()
}

// Xor emits y ↔ a⊕b and returns y.
func (c *Circuit) Xor(a, b cnf.Lit) cnf.Lit {
	y := cnf.Pos(c.F.NewVar())
	c.F.AddClause(cnf.Clause{y.Not(), a, b})
	c.F.AddClause(cnf.Clause{y.Not(), a.Not(), b.Not()})
	c.F.AddClause(cnf.Clause{y, a, b.Not()})
	c.F.AddClause(cnf.Clause{y, a.Not(), b})
	return y
}

// AssertTrue forces wire l to 1.
func (c *Circuit) AssertTrue(l cnf.Lit) { c.F.AddClause(cnf.Clause{l}) }

// AssertFalse forces wire l to 0.
func (c *Circuit) AssertFalse(l cnf.Lit) { c.F.AddClause(cnf.Clause{l.Not()}) }

// HalfAdder returns (sum, carry) of a+b.
func (c *Circuit) HalfAdder(a, b cnf.Lit) (sum, carry cnf.Lit) {
	return c.Xor(a, b), c.And(a, b)
}

// FullAdder returns (sum, carry) of a+b+cin.
func (c *Circuit) FullAdder(a, b, cin cnf.Lit) (sum, carry cnf.Lit) {
	s1, c1 := c.HalfAdder(a, b)
	s2, c2 := c.HalfAdder(s1, cin)
	return s2, c.Or(c1, c2)
}

// RippleAdder returns the (len+1)-bit sum of two equal-width operands,
// least-significant bit first.
func (c *Circuit) RippleAdder(a, b []cnf.Lit) []cnf.Lit {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gen: adder width mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]cnf.Lit, 0, len(a)+1)
	carry := c.ConstFalse()
	for i := range a {
		var sum cnf.Lit
		sum, carry = c.FullAdder(a[i], b[i], carry)
		out = append(out, sum)
	}
	return append(out, carry)
}

// CarrySelectAdder is a structurally different adder: generate/propagate
// recurrences computed explicitly. Functionally identical to RippleAdder.
func (c *Circuit) CarrySelectAdder(a, b []cnf.Lit) []cnf.Lit {
	if len(a) != len(b) {
		panic("gen: adder width mismatch")
	}
	out := make([]cnf.Lit, 0, len(a)+1)
	carry := c.ConstFalse()
	for i := range a {
		g := c.And(a[i], b[i]) // generate
		p := c.Xor(a[i], b[i]) // propagate
		out = append(out, c.Xor(p, carry))
		carry = c.Or(g, c.And(p, carry)) // c_{i+1} = g ∨ p·c_i
	}
	return append(out, carry)
}

// Multiplier returns the (len(a)+len(b))-bit product of two operands (LSB
// first), as an array multiplier of AND partial products and ripple adders.
func (c *Circuit) Multiplier(a, b []cnf.Lit) []cnf.Lit {
	width := len(a) + len(b)
	zero := c.ConstFalse()
	acc := make([]cnf.Lit, width)
	for i := range acc {
		acc[i] = zero
	}
	for j := range b {
		// Partial product a·b_j shifted by j.
		row := make([]cnf.Lit, width)
		for i := range row {
			row[i] = zero
		}
		for i := range a {
			row[i+j] = c.And(a[i], b[j])
		}
		sum := c.RippleAdder(acc, row)
		acc = sum[:width] // the final carry out of width bits is always 0 here
	}
	return acc
}

// AssertEqualsConst constrains a bit vector (LSB first) to the constant n.
func (c *Circuit) AssertEqualsConst(bits []cnf.Lit, n uint64) {
	for i, b := range bits {
		if n&(1<<uint(i)) != 0 {
			c.AssertTrue(b)
		} else {
			c.AssertFalse(b)
		}
	}
}

// Miter returns a wire that is 1 iff the two output vectors differ.
func (c *Circuit) Miter(a, b []cnf.Lit) cnf.Lit {
	if len(a) != len(b) {
		panic("gen: miter width mismatch")
	}
	diff := c.ConstFalse()
	for i := range a {
		diff = c.Or(diff, c.Xor(a[i], b[i]))
	}
	return diff
}
