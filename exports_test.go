package powermap

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOracles are the exported functions under internal/ that no
// production code calls but that stay, each for the reason given.
var testOracles = map[string]string{
	"network.EquivalentBrute":     "exhaustive-evaluation oracle shared by the network, blif and equiv tests",
	"sop.ParseCover":              "reads Cover.String back; the round-trip and FuzzParseCover oracle",
	"npn.Transform.Apply":         "the NPN transform algebra the npn tests and FuzzCanonical check against",
	"equiv.MismatchError.Witness": "facade users read the counterexample of a failed Verify",
	"bdd.Root.Release":            "half of the Protect/Release root contract; ROADMAP item 4 gives it a caller",
	"obs.WritePrometheus":         "benchmark/serve_test.go parses its exposition; benchmark/ changes only with the benchmark",
}

// ablationKnobs are the exported fields under internal/ that no production
// code sets but that stay, each for the reason given.
var ablationKnobs = map[string]string{
	"core.Options.Strash":         "the EXPERIMENTS.md structural-hashing ablation (BenchmarkAblationStrash)",
	"core.Options.StrongSimplify": "the EXPERIMENTS.md quick-opt ablation (BenchmarkAblationStrongSimplify)",
}

// TestNoTestOnlyExports type-checks the non-test files of every package of
// the module and of benchmark/ (its own module) and fails on every
// exported function, method or struct field declared under internal/ that
// only tests need: a function or method that no non-test code uses, and a
// field that no non-test code sets. It also fails on every allowlist entry
// that is no longer flagged. The rules are exportScan.testOnly's.
func TestNoTestOnlyExports(t *testing.T) {
	scan := loadModules(t, ".", "benchmark")
	funcs, fields := scan.testOnly(func(path string) bool { return strings.HasPrefix(path, "powermap/internal/") })
	for _, c := range []struct {
		kind, fix string
		got       []string
		allowed   map[string]string
	}{
		{"function", "delete it or give it a production caller", funcs, testOracles},
		{"field", "delete it or set it from a CLI, pserve or eval", fields, ablationKnobs},
	} {
		flagged := map[string]bool{}
		for _, key := range c.got {
			flagged[key] = true
			if c.allowed[key] == "" {
				t.Errorf("%s: exported %s only tests need; %s", key, c.kind, c.fix)
			}
		}
		for key := range c.allowed {
			if !flagged[key] {
				t.Errorf("%s: allowlisted, but no longer a test-only %s; drop it from the list", key, c.kind)
			}
		}
	}
}

// exportScan is a set of type-checked packages that share one types.Info,
// so that an object has one identity in every package that uses it.
type exportScan struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  []*types.Package
	files map[*types.Package][]*ast.File
}

// stdImporter type-checks the standard library from source, once per test
// binary: the module cache holds no golang.org/x/tools loader.
var stdImporter = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

func newExportScan() *exportScan {
	fset, _ := stdImporter()
	return &exportScan{
		fset: fset,
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		files: map[*types.Package][]*ast.File{},
	}
}

// check type-checks one package whose imports are the standard library or
// packages already checked.
func (s *exportScan) check(path string, files []*ast.File) error {
	_, std := stdImporter()
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		for _, pkg := range s.pkgs {
			if pkg.Path() == p {
				return pkg, nil
			}
		}
		return std.Import(p)
	})}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return err
	}
	s.pkgs = append(s.pkgs, pkg)
	s.files[pkg] = files
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModules type-checks the GoFiles of every non-standard package that
// `go list -deps ./...` reports in each module root, dependencies first.
func loadModules(t *testing.T, roots ...string) *exportScan {
	t.Helper()
	s := newExportScan()
	seen := map[string]bool{}
	for _, root := range roots {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", root, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct {
				ImportPath, Dir string
				GoFiles         []string
				Standard        bool
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if p.Standard || seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			if err := s.check(p.ImportPath, files); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// testOnly classifies the exported API of every scanned package for which
// inScope(path) holds: its exported functions, and the exported methods and
// fields of its exported types. It returns, sorted:
//   - funcs: each function or method with no use outside its own
//     declaration. A method that implements an interface the scanned
//     packages declare or import, or the errors.Is/As/Unwrap protocol, is
//     reached by dynamic dispatch and never flagged.
//   - fields: each untagged, non-embedded field of a struct type that no
//     scanned code sets. A set is a keyed or positional composite-literal
//     element, an assignment or op-assignment, ++/--, or &x.F. A plain
//     assignment to a field of a function's own parameter inside the
//     package that declares the field is defaulting and does not count.
//     Tagged fields are exempt: encoding/json fills them.
func (s *exportScan) testOnly(inScope func(path string) bool) (funcs, fields []string) {
	type span struct{ pos, end token.Pos }
	declOf := map[*types.Func]span{}
	fieldKey := map[*types.Var]string{}
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	addIfaces := func(pkg *types.Package, exportedOnly bool) {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || (exportedOnly && !tn.Exported()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && types.IsInterface(named) {
				ifaces = append(ifaces, named)
			}
		}
	}
	for _, pkg := range s.pkgs {
		addIfaces(pkg, false)
		for _, imp := range pkg.Imports() {
			addIfaces(imp, true)
		}
		if !inScope(pkg.Path()) {
			continue
		}
		for _, f := range s.files[pkg] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := s.info.Defs[fd.Name].(*types.Func)
				if recv := fn.Type().(*types.Signature).Recv(); recv == nil || recvNamed(recv.Type()).Obj().Exported() {
					declOf[fn] = span{fd.Pos(), fd.End()}
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					fieldKey[f] = pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	for id, obj := range s.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if d, ok := declOf[fn]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
				used[fn] = true
			}
		}
	}
	for fn := range declOf {
		if !used[fn] && !dispatched(fn, ifaces) {
			funcs = append(funcs, funcKey(fn))
		}
	}

	set := map[*types.Var]bool{}
	for _, pkg := range s.pkgs {
		for _, f := range s.files[pkg] {
			s.markSets(pkg, f, set)
		}
	}
	for f, key := range fieldKey {
		if !set[f] {
			fields = append(fields, key)
		}
	}
	sort.Strings(funcs)
	sort.Strings(fields)
	return funcs, fields
}

// markSets records in set every struct field that f sets (see testOnly).
func (s *exportScan) markSets(pkg *types.Package, f *ast.File, set map[*types.Var]bool) {
	params := map[types.Object]bool{}
	addParams := func(sig *types.Signature) {
		for i := 0; i < sig.Params().Len(); i++ {
			params[sig.Params().At(i)] = true
		}
	}
	// target marks the field that the addressable expression e names;
	// plain says e is the left side of a plain assignment.
	target := func(e ast.Expr, plain bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		field, ok := s.info.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && plain && params[s.info.Uses[id]] && field.Pkg() == pkg {
			return
		}
		set[field.Origin()] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := s.info.Defs[n.Name].(*types.Func); ok {
				addParams(fn.Type().(*types.Signature))
			}
		case *ast.FuncLit:
			addParams(s.info.Types[n].Type.(*types.Signature))
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					target(lhs, n.Tok == token.ASSIGN)
				}
			}
		case *ast.IncDecStmt:
			target(n.X, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, false)
			}
		case *ast.CompositeLit:
			typ := s.info.Types[n].Type
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if field, ok := s.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[field.Origin()] = true
					}
				} else {
					set[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// dispatched reports whether method fn implements a method of one of
// ifaces, or belongs to the errors.Is/As/Unwrap protocol, which errors
// finds through anonymous interfaces.
func dispatched(fn *types.Func, ifaces []*types.Named) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	in, out := sig.Params(), sig.Results()
	switch fn.Name() {
	case "Is":
		if in.Len() == 1 && types.Identical(in.At(0).Type(), errType) && out.Len() == 1 && types.Identical(out.At(0).Type(), types.Typ[types.Bool]) {
			return true
		}
	case "As":
		if in.Len() == 1 && types.Identical(in.At(0).Type(), types.Universe.Lookup("any").Type()) && out.Len() == 1 && types.Identical(out.At(0).Type(), types.Typ[types.Bool]) {
			return true
		}
	case "Unwrap":
		if in.Len() == 0 && out.Len() == 1 && (types.Identical(out.At(0).Type(), errType) || types.Identical(out.At(0).Type(), types.NewSlice(errType))) {
			return true
		}
	}
	recv := recvNamed(sig.Recv().Type())
	for _, named := range ifaces {
		iface := named.Underlying().(*types.Interface)
		if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); obj == nil {
			continue
		}
		var candidates []types.Type
		switch named.TypeParams().Len() {
		case 0:
			candidates = []types.Type{named}
		case 1:
			// A generic interface (huffman.Algebra[S]) is instantiated with
			// each type in the method's own signature.
			for _, tup := range []*types.Tuple{in, out} {
				for i := 0; i < tup.Len(); i++ {
					if inst, err := types.Instantiate(nil, named, []types.Type{tup.At(i).Type()}, true); err == nil {
						candidates = append(candidates, inst)
					}
				}
			}
		}
		for _, c := range candidates {
			it, ok := c.Underlying().(*types.Interface)
			if ok && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// recvNamed is the named type of a method receiver, T or *T.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// funcKey names fn as pkg.Func or pkg.Recv.Method.
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		key += recvNamed(recv.Type()).Obj().Name() + "."
	}
	return key + fn.Name()
}

// TestExportScanRules runs exportScan.testOnly on small packages
// type-checked in memory: "lib" is in scope, "app" stands for the
// production code that uses it.
func TestExportScanRules(t *testing.T) {
	for _, c := range []struct {
		name                  string
		lib, app              string
		wantFuncs, wantFields []string
	}{{
		// Cover.Eval is used, so a name-based count also sees Manager.Eval.
		name: "colliding name",
		lib: `package lib
type Manager struct{}
func (Manager) Eval() bool { return true }
type Cover struct{}
func (Cover) Eval() bool { return false }`,
		app:       `package app; import "lib"; var _ = lib.Cover{}.Eval()`,
		wantFuncs: []string{"lib.Manager.Eval"},
	}, {
		// Uses and sets through an instance count for the generic origin.
		name: "generic instances",
		lib: `package lib
type Tree[S any] struct{ Leaf, Root S }
func (t *Tree[S]) Height() int { return 0 }`,
		app:        `package app; import "lib"; var _ = (&lib.Tree[int]{Leaf: 1}).Height()`,
		wantFields: []string{"lib.Tree.Root"},
	}, {
		name: "dispatched methods",
		lib: `package lib
import "fmt"
type NodeLimitError struct{ N int }
func (e *NodeLimitError) Error() string { return fmt.Sprint(e.N) }
func (e *NodeLimitError) Is(target error) bool { return target == nil }
type Gate int
func (g Gate) String() string { return "gate" }
func (g Gate) Area() int { return int(g) }`,
		app:       `package app; import "lib"; var _ error = &lib.NodeLimitError{N: 1}; var _ = lib.Gate(0)`,
		wantFuncs: []string{"lib.Gate.Area"},
	}, {
		name: "defaulting is not a set",
		lib: `package lib
type Options struct{ Limit, Iters int; Hook func() }
func Run(o Options) int {
	if o.Limit == 0 {
		o.Limit = 10
	}
	if o.Hook == nil {
		o.Hook = func() {}
	}
	o.Iters++
	return o.Limit + o.Iters
}`,
		app: `package app
import "lib"
func Use(o lib.Options) int {
	o.Hook = nil
	return lib.Run(o)
}`,
		wantFields: []string{"lib.Options.Limit"},
	}, {
		name: "tagged fields",
		lib: `package lib
type Request struct {
	Circuit string ` + "`json:\"circuit\"`" + `
	Budget  int
}`,
		app:        `package app; import "lib"; var _ lib.Request`,
		wantFields: []string{"lib.Request.Budget"},
	}, {
		name: "composite literals and other sets",
		lib: `package lib
type Point struct{ X, Y int }
type Key struct{ Name, Kind string }
type Stats struct{ Runs, Sum int; Last float64 }`,
		app: `package app
import "lib"
var _ = lib.Point{1, 2}
var _ = []lib.Key{{Name: "k"}}
func Bump(s *lib.Stats) *float64 {
	s.Runs++
	s.Sum += 2
	return &s.Last
}`,
		wantFields: []string{"lib.Key.Kind"},
	}} {
		t.Run(c.name, func(t *testing.T) {
			s := newExportScan()
			for _, src := range []struct{ path, text string }{{"lib", c.lib}, {"app", c.app}} {
				f, err := parser.ParseFile(s.fset, src.path+".go", src.text, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.check(src.path, []*ast.File{f}); err != nil {
					t.Fatal(err)
				}
			}
			funcs, fields := s.testOnly(func(path string) bool { return path == "lib" })
			if !slices.Equal(funcs, c.wantFuncs) || !slices.Equal(fields, c.wantFields) {
				t.Errorf("flagged functions %v and fields %v, want %v and %v", funcs, fields, c.wantFuncs, c.wantFields)
			}
		})
	}
}
