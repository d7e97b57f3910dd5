package hyqsat_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUncalled lists the exported functions and methods under internal/ that
// no non-test code calls but that stay, each with the test or contract that
// needs it. Keys are pkg.Func or pkg.Type.Method.
var keptUncalled = map[string]string{
	// Reference oracles the production paths are checked against.
	"embed.Verify":                         "TestFastEmbeddingsVerify and FuzzFastVerify check every Fast embedding with it",
	"embed.NewQubitOwners":                 "the embedding and EmbedIsing tests derive expected couplers from qubit ownership",
	"embed.QubitOwners.IntraChainCouplers": "the chain-coupler oracle of the embedding and EmbedIsing tests",
	"embed.QubitOwners.InterChainCouplers": "the logical-coupler oracle of the embedding and EmbedIsing tests",
	"verify.DiffRandom":                    "TestDiffRandom* and the certification corpus cross-check every solver against the DPLL oracle",
	"verify.FormatDisagreements":           "renders DiffRandom failures in those tests",
	"qubo.Encoding.NodesFromAssignment":    "TestNodesFromAssignmentZeroEnergyOnModels and FuzzEncodeClause: the ground-state oracle",
	"verify.ParseDRAT":                     "the DRAT round-trip, CLI -proof and stitched cube-proof tests read proofs back with it",
	"perfgate.Overhead":                    "the 1% overhead gates TestNopTracerKernelOverhead and TestResilientOverhead",
	// Hooks that tests use to check safety invariants.
	"hyqsat.Solver.PhaseOverlaps": "TestPhaseSpansDisjointAndBounded asserts no two phase spans overlap",
	"sat.Solver.ArenaStats":       "TestArenaStats and the reduceDB arena tests",
	"sat.Solver.ClearInterrupt":   "TestInterruptStopsSearchAndRearms re-arms an interrupted solver",
	"qpu.FaultInjector.Calls":     "the fault-injection and Resilient tests count backend calls",
	"obs.QualityTracker.BySource": "TestQualityBySourceIsolation checks per-source segment attribution",
	// Called only implicitly, through an interface.
	"portfolio.ErrUncertified.Unwrap": "errors.Is and errors.As walk it",
}

// TestNoUncalledInternalExports fails when an exported top-level function or
// method declared in a non-test file under internal/ is named nowhere else in
// the module's non-test Go files (internal/, cmd/, examples/, perfbench/).
// Packages under internal/ cannot be imported from outside the module, so
// such a name has no caller at all. The check matches names, not types: a
// call of any function or method of the same name counts as a use.
func TestNoUncalledInternalExports(t *testing.T) {
	type decl struct{ file, name, key string }
	var decls []decl
	// named holds every identifier of non-test code outside the name of a
	// function declaration: calls, method values, interface methods.
	named := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fn.Name] = true
				if strings.HasPrefix(path, "internal"+string(filepath.Separator)) && fn.Name.IsExported() {
					decls = append(decls, decl{path, fn.Name.Name, qualified(f.Name.Name, fn)})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					named[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	var dead []string
	declaredKeys := map[string]bool{}
	for _, d := range decls {
		declaredKeys[d.key] = true
		if _, ok := keptUncalled[d.key]; ok {
			continue
		}
		if !named[d.name] {
			dead = append(dead, d.file+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller in non-test code; delete it, or list it in keptUncalled with the test that needs it", d)
	}
	for key := range keptUncalled {
		if !declaredKeys[key] {
			t.Errorf("keptUncalled lists %s, which is no longer declared", key)
		}
	}
}

// qualified names fn as pkg.Func or pkg.Type.Method.
func qualified(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return pkg + "." + recv + "." + fn.Name.Name
}

// keptUnset lists the fields of exported *Config and *Options structs under
// internal/ that no non-test code writes but that stay, each with the reason.
// Keys are pkg.Type.Field.
var keptUnset = map[string]string{}

// TestNoUnsetConfigFields fails when a field of an exported struct type under
// internal/ whose name ends in Config or Options is never written in the
// module's non-test Go files (internal/, cmd/, examples/, perfbench/): a
// setting nothing sets selects a code path only tests can reach. A write is a
// composite-literal key, an assignment or increment target, or an address
// taken with &x.F. Like TestNoUncalledInternalExports it matches names, not
// types: a write of any field of the same name counts.
func TestNoUnsetConfigFields(t *testing.T) {
	type field struct{ file, name, key string }
	var fields []field
	written := map[string]bool{}
	// target marks the field selected by an assignment target, and every
	// field it is reached through: writing x.A.B writes A too.
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			written[e.Sel.Name] = true
			target(e.X)
		case *ast.IndexExpr:
			target(e.X)
		case *ast.StarExpr:
			target(e.X)
		case *ast.ParenExpr:
			target(e.X)
		}
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				for _, d := range f.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok || gd.Tok != token.TYPE {
						continue
					}
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						st, ok := ts.Type.(*ast.StructType)
						name := ts.Name.Name
						if !ok || !ts.Name.IsExported() ||
							!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
							continue
						}
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								fields = append(fields, field{path, id.Name, f.Name.Name + "." + name + "." + id.Name})
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no Config or Options fields under internal/")
	}
	declared := map[string]bool{}
	var unset []string
	for _, f := range fields {
		declared[f.key] = true
		if _, ok := keptUnset[f.key]; !ok && !written[f.name] {
			unset = append(unset, f.file+": "+f.key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is never set in non-test code; delete it and the path it selects, or list it in keptUnset with the reason", u)
	}
	for key := range keptUnset {
		if !declared[key] {
			t.Errorf("keptUnset lists %s, which is no longer declared", key)
		}
	}
}
