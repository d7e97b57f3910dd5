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
	"obs.ReadJSONL":                        "the CLI and daemon trace tests parse recorded traces back with it",
	"hyqsat.GenerateQueue":                 "the queue tests and TestFullPipelineManually drive §IV-A queue generation on its own",
	"perfgate.Overhead":                    "the 1% overhead gates TestNopTracerKernelOverhead and TestResilientOverhead",
	// Hooks that tests use to check safety invariants.
	"hyqsat.Solver.PhaseOverlaps": "TestPhaseSpansDisjointAndBounded asserts no two phase spans overlap",
	"sat.Solver.ArenaStats":       "TestArenaStats and the reduceDB arena tests",
	"sat.Solver.ClearInterrupt":   "TestInterruptStopsSearchAndRearms re-arms an interrupted solver",
	"portfolio.Bus.Inject":        "TestSharingAdversarialInjection* feed corrupted clauses through the bus",
	"qpu.FaultInjector.Calls":     "the fault-injection and Resilient tests count backend calls",
	"obs.QualityTracker.BySource": "TestQualityBySourceIsolation checks per-source segment attribution",
	"serve.tenants.Override":      "TestSampleEndpointQuota installs the per-tenant device budgets it enforces",
	// The Go client of hyqsatd's /v1/qpu/sample endpoint and its chaos proxy.
	"qpu.NewRemote":         "the /v1/qpu/sample client: TestRemote* and the FuzzRemoteDecode gate",
	"qpu.NewFallback":       "degrades a Remote to a local backend: TestFallbackServesStandby, TestDeadServerDegradesToLocal",
	"qpu.Fallback.FellBack": "the same tests assert the fallback engaged",
	"serve.NewChaosProxy":   "TestWireChaosMatrix and TestChaosLeavesNoGoroutines",
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
