package hyqsat_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
	"obs.Ring.Events":             "TestWithSourceAttributesSinkAndRing, TestCubeEventAttribution and the chaos tests read recorded events back",
	"hyqsat.Solver.Metrics":       "TestStatsIsRegistryView and TestLiveEndpointsDuringSolve read the solver's registry",
	"qpu.Resilient.Metrics":       "TestBreakerStateMachine, TestPanicRecovery and TestRetryGivesUpAfterMaxAttempts read the wrapper's counters",
	"qpu.Resilient.State":         "TestBreakerStateMachine, TestBreakerHalfOpenSingleProbe and TestBreakerRecoveryDuringSolve step the breaker",
	// Called only implicitly, through an interface.
	"portfolio.ErrUncertified.Unwrap": "errors.Is and errors.As walk it",
}

// modulePath is the import path of the module rooted at this directory. The
// nested perfbench module's path extends it, so every package of both maps
// onto its directory by stripping the prefix.
const modulePath = "hyqsat"

// checkedRoots are the directories whose non-test code counts as a caller or
// a writer.
var checkedRoots = []string{"internal", "cmd", "examples", "perfbench"}

// moduleTypes holds the type-checked non-test files of every package under
// checkedRoots, with one Info over all of them.
type moduleTypes struct {
	fset  *token.FileSet
	info  *types.Info
	files map[string][]*ast.File // by package directory
	// stringer is fmt.Stringer's String method, which fmt calls on every
	// value it formats that implements it.
	stringer *types.Func
}

// loadModule type-checks the module's non-test code once per test binary.
var loadModule = sync.OnceValues(func() (*moduleTypes, error) {
	// The source importer type-checks the standard library from GOROOT;
	// with cgo off it takes the pure-Go variants of net and os/user rather
	// than running the cgo tool.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &moduleLoader{
		mt: &moduleTypes{
			fset: fset,
			info: &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
			files: map[string][]*ast.File{},
		},
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	for _, root := range checkedRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = l.load(path)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	fmtPkg, err := l.Import("fmt")
	if err != nil {
		return nil, err
	}
	l.mt.stringer = fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0)
	return l.mt, nil
})

// moduleLoader resolves module imports by type-checking their directories
// from source, and every other import through the standard library's source
// importer.
type moduleLoader struct {
	mt   *moduleTypes
	std  types.ImporterFrom
	pkgs map[string]*types.Package
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		return l.load(filepath.FromSlash(rel))
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of the package in dir, once.
func (l *moduleLoader) load(dir string) (*types.Package, error) {
	path := modulePath + "/" + filepath.ToSlash(dir)
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.mt.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.mt.fset, files, l.mt.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.mt.files[dir] = files
	return p, nil
}

// internalFiles calls fn for every non-test file under internal/.
func (mt *moduleTypes) internalFiles(fn func(path string, f *ast.File)) {
	for dir, files := range mt.files {
		if !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) {
			continue
		}
		for _, f := range files {
			fn(mt.fset.Position(f.Package).Filename, f)
		}
	}
}

// TestNoUncalledInternalExports fails when an exported top-level function or
// method declared in a non-test file under internal/ has no use in the
// module's non-test Go files (internal/, cmd/, examples/, perfbench/).
// Packages under internal/ cannot be imported from outside the module, so
// such a declaration has no caller at all. Uses are resolved to objects with
// go/types, so a call of another function or method of the same name does
// not count. A method also counts as used when its type implements an
// interface whose method of that name is used, since the call may dispatch
// to it, and a String method counts when its type is a fmt.Stringer.
func TestNoUncalledInternalExports(t *testing.T) {
	mt, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	used := map[*types.Func]bool{}
	ifaceMethods := []*types.Func{mt.stringer}
	for _, obj := range mt.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	// dispatched reports whether a used interface method may call fn.
	dispatched := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named := recv.Type()
		if ptr, ok := named.(*types.Pointer); ok {
			named = ptr.Elem()
		}
		for _, m := range ifaceMethods {
			if m.Name() != fn.Name() {
				continue
			}
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	var dead []string
	declared := map[string]bool{}
	mt.internalFiles(func(path string, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := qualified(f.Name.Name, fn)
			declared[key] = true
			if _, ok := keptUncalled[key]; ok {
				continue
			}
			obj := mt.info.Defs[fn.Name].(*types.Func)
			if !used[obj] && !dispatched(obj) {
				dead = append(dead, path+": "+key)
			}
		}
	})
	if len(declared) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller in non-test code; delete it, or list it in keptUncalled with the test that needs it", d)
	}
	for key := range keptUncalled {
		if !declared[key] {
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
var keptUnset = map[string]string{
	"verify.DiffConfig.Seed": "TestDiffRandom* pick their instance streams with it; DiffRandom is itself a test oracle (keptUncalled)",
}

// TestNoUnsetConfigFields fails when a field of an exported struct type under
// internal/ whose name ends in Config or Options is never written in the
// module's non-test Go files (internal/, cmd/, examples/, perfbench/): a
// setting nothing sets selects a code path only tests can reach. A write is a
// composite-literal element, an assignment or increment target, or an
// address taken with &x.F. Like TestNoUncalledInternalExports it resolves
// fields with go/types: a write of another type's field of the same name
// does not count.
func TestNoUnsetConfigFields(t *testing.T) {
	mt, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	written := map[*types.Var]bool{}
	// target marks the field selected by an assignment target, and every
	// field it is reached through: writing x.A.B writes A too.
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := mt.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				written[sel.Obj().(*types.Var).Origin()] = true
			}
			target(e.X)
		case *ast.IndexExpr:
			target(e.X)
		case *ast.StarExpr:
			target(e.X)
		case *ast.ParenExpr:
			target(e.X)
		}
	}
	for _, files := range mt.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := mt.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[mt.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
						} else {
							written[st.Field(i).Origin()] = true
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
		}
	}
	declared := map[string]bool{}
	var unset []string
	mt.internalFiles(func(path string, f *ast.File) {
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
						key := f.Name.Name + "." + name + "." + id.Name
						declared[key] = true
						if _, ok := keptUnset[key]; !ok && !written[mt.info.Defs[id].(*types.Var)] {
							unset = append(unset, path+": "+key)
						}
					}
				}
			}
		}
	})
	if len(declared) == 0 {
		t.Fatal("found no Config or Options fields under internal/")
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

// keptUnread lists the unexported struct fields under internal/ that no
// non-test code reads but that stay, each with the reason. Keys are
// pkg.Type.field.
var keptUnread = map[string]string{
	"obs.Server.ln": "server_test.go closes the listener under a running server to check that Err reports the serve error",
}

// TestNoUnreadInternalFields fails when an unexported field of a struct type
// declared in a non-test file under internal/ is never read in the module's
// non-test Go files: state that is only assigned (or not used at all) does
// nothing. A write is an assignment or increment target, a composite-literal
// key or element, or the slice, map or value struct a target indexes or
// selects into (writing x.f[i] or x.f.g writes f); every other use is a
// read, so a field reached through a pointer (x.p.g = v) or whose address
// is taken counts as read. Fields resolve with go/types, as in
// TestNoUncalledInternalExports.
func TestNoUnreadInternalFields(t *testing.T) {
	mt, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	writes := map[*ast.SelectorExpr]bool{}
	// target marks the field selections an assignment target writes.
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := mt.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				writes[e] = true
				if _, ptr := mt.info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
					target(e.X)
				}
			}
		case *ast.IndexExpr:
			if _, ptr := mt.info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
				target(e.X)
			}
		case *ast.ParenExpr:
			target(e.X)
		}
	}
	read := map[*types.Var]bool{}
	for _, files := range mt.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
	}
	for e, sel := range mt.info.Selections {
		if sel.Kind() == types.FieldVal && !writes[e] {
			read[sel.Obj().(*types.Var).Origin()] = true
		}
	}
	declared := map[string]bool{}
	var unread []string
	mt.internalFiles(func(path string, f *ast.File) {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() || id.Name == "_" {
							continue
						}
						key := f.Name.Name + "." + ts.Name.Name + "." + id.Name
						declared[key] = true
						if _, ok := keptUnread[key]; !ok && !read[mt.info.Defs[id].(*types.Var)] {
							unread = append(unread, path+": "+key)
						}
					}
				}
			}
		}
	})
	if len(declared) == 0 {
		t.Fatal("found no unexported struct fields under internal/")
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is never read in non-test code; delete it and its writes, or list it in keptUnread with the reason", u)
	}
	for key := range keptUnread {
		if !declared[key] {
			t.Errorf("keptUnread lists %s, which is no longer declared", key)
		}
	}
}
