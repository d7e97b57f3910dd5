// Package cnf provides the propositional-logic substrate shared by every
// solver in this repository: variables, literals, clauses, CNF formulas,
// truth assignments, DIMACS serialisation, and decomposition of arbitrary
// k-SAT formulas into the 3-CNF form that HyQSAT (HPCA 2023) operates on.
package cnf

import (
	"fmt"
	"sort"
	"strings"
)

// Var identifies a propositional variable. Variables are 0-based internally;
// the DIMACS representation (1-based, sign-coded) is produced on demand.
type Var int32

// NoVar is the sentinel for "no variable".
const NoVar Var = -1

// Lit is a literal: a variable together with a polarity. The encoding is the
// conventional one used by CDCL solvers: positive literal of v is 2v, negated
// literal is 2v+1, so that l^1 flips polarity and l>>1 recovers the variable.
type Lit int32

// NoLit is the sentinel for "no literal".
const NoLit Lit = -1

// MkLit builds a literal from a variable and a polarity flag.
// neg=false yields the positive literal v, neg=true yields ¬v.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit(v << 1) }

// Neg returns the negated literal of v.
func Neg(v Var) Lit { return Lit(v<<1) | 1 }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsNeg reports whether l is a negated literal.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Dimacs returns the 1-based signed integer encoding of l used by the DIMACS
// CNF format: variable 0 becomes 1 (or -1 when negated), and so on.
func (l Lit) Dimacs() int {
	d := int(l.Var()) + 1
	if l.IsNeg() {
		return -d
	}
	return d
}

// LitFromDimacs converts a non-zero DIMACS integer to a Lit.
// It panics on 0, which DIMACS reserves as the clause terminator.
func LitFromDimacs(d int) Lit {
	if d == 0 {
		panic("cnf: DIMACS literal 0 is the clause terminator, not a literal")
	}
	if d > 0 {
		return Pos(Var(d - 1))
	}
	return Neg(Var(-d - 1))
}

func (l Lit) String() string {
	if l == NoLit {
		return "⊥"
	}
	if l.IsNeg() {
		return fmt.Sprintf("¬x%d", l.Var()+1)
	}
	return fmt.Sprintf("x%d", l.Var()+1)
}

// Clause is a disjunction of literals.
type Clause []Lit

// NewClause builds a clause from DIMACS-style signed integers,
// e.g. NewClause(1, -2, 3) is (x1 ∨ ¬x2 ∨ x3).
func NewClause(dimacs ...int) Clause {
	c := make(Clause, len(dimacs))
	for i, d := range dimacs {
		c[i] = LitFromDimacs(d)
	}
	return c
}

// Vars returns the distinct variables of c in ascending order.
func (c Clause) Vars() []Var {
	seen := make(map[Var]struct{}, len(c))
	out := make([]Var, 0, len(c))
	for _, l := range c {
		v := l.Var()
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsTautology reports whether c contains a literal and its complement.
func (c Clause) IsTautology() bool {
	seen := make(map[Lit]struct{}, len(c))
	for _, l := range c {
		if _, ok := seen[l.Not()]; ok {
			return true
		}
		seen[l] = struct{}{}
	}
	return false
}

// Normalized returns a copy of c with duplicate literals removed and literals
// sorted. Tautologies are preserved (use IsTautology to filter them).
func (c Clause) Normalized() Clause {
	seen := make(map[Lit]struct{}, len(c))
	out := make(Clause, 0, len(c))
	for _, l := range c {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// Formula is a CNF formula: a conjunction of clauses over NumVars variables.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// New returns an empty formula over n variables.
func New(n int) *Formula {
	return &Formula{NumVars: n}
}

// AddClause appends a clause, growing NumVars if the clause mentions a
// variable beyond the current range.
func (f *Formula) AddClause(c Clause) {
	for _, l := range c {
		if int(l.Var()) >= f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// Add is AddClause with DIMACS-style signed integer literals.
func (f *Formula) Add(dimacs ...int) {
	f.AddClause(NewClause(dimacs...))
}

// NewVar allocates a fresh variable and returns it.
func (f *Formula) NewVar() Var {
	v := Var(f.NumVars)
	f.NumVars++
	return v
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// MaxClauseLen returns the length of the longest clause, or 0 if empty.
func (f *Formula) MaxClauseLen() int {
	max := 0
	for _, c := range f.Clauses {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// Is3CNF reports whether every clause has at most three literals.
func (f *Formula) Is3CNF() bool { return f.MaxClauseLen() <= 3 }

// Copy returns a deep copy of f.
func (f *Formula) Copy() *Formula {
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		g.Clauses[i] = append(Clause(nil), c...)
	}
	return g
}

func (f *Formula) String() string {
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Value is a three-valued truth value: variables start Undef and become
// True or False as they are assigned.
type Value int8

// Truth values.
const (
	Undef Value = iota
	True
	False
)

func (v Value) String() string {
	switch v {
	case True:
		return "1"
	case False:
		return "0"
	default:
		return "?"
	}
}

// Not returns the logical complement; Undef maps to Undef.
func (v Value) Not() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	default:
		return Undef
	}
}

// Assignment maps each variable to a (possibly Undef) truth value.
type Assignment []Value

// NewAssignment returns an all-Undef assignment for n variables.
func NewAssignment(n int) Assignment { return make(Assignment, n) }

// FromBools builds a total assignment from a boolean model.
func FromBools(model []bool) Assignment {
	a := make(Assignment, len(model))
	for i, b := range model {
		if b {
			a[i] = True
		} else {
			a[i] = False
		}
	}
	return a
}

// Bools converts a total assignment to a boolean model.
// Undef values map to false.
func (a Assignment) Bools() []bool {
	out := make([]bool, len(a))
	for i, v := range a {
		out[i] = v == True
	}
	return out
}

// Lit returns the truth value of literal l under a.
func (a Assignment) Lit(l Lit) Value {
	v := a[l.Var()]
	if l.IsNeg() {
		return v.Not()
	}
	return v
}

// Set assigns variable v the boolean value b.
func (a Assignment) Set(v Var, b bool) {
	if b {
		a[v] = True
	} else {
		a[v] = False
	}
}

// ClauseStatus is the status of a clause under a partial assignment.
type ClauseStatus int8

// Clause statuses under a partial assignment.
const (
	ClauseSatisfied  ClauseStatus = iota // some literal is true
	ClauseFalsified                      // every literal is false
	ClauseUnit                           // exactly one literal unassigned, rest false
	ClauseUnresolved                     // two or more literals unassigned, none true
)

// Status classifies clause c under assignment a.
func (a Assignment) Status(c Clause) ClauseStatus {
	unassigned := 0
	for _, l := range c {
		switch a.Lit(l) {
		case True:
			return ClauseSatisfied
		case Undef:
			unassigned++
		}
	}
	switch unassigned {
	case 0:
		return ClauseFalsified
	case 1:
		return ClauseUnit
	default:
		return ClauseUnresolved
	}
}

// Satisfies reports whether a satisfies every clause of f.
func (a Assignment) Satisfies(f *Formula) bool {
	for _, c := range f.Clauses {
		if a.Status(c) != ClauseSatisfied {
			return false
		}
	}
	return true
}
