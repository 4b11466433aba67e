package powermap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
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
}

// TestNoTestOnlyExports fails on every exported function or method
// declared under internal/ whose name no non-test Go file in the module
// (benchmark/ included) references outside that declaration, and on every
// testOracles entry that is no longer such a function. Matching is by
// name: a colliding name hides a test-only symbol, and a method reached
// only through an interface (a MarshalJSON no code names) would need a
// testOracles entry.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	refs := map[string]int{} // identifier name -> occurrences in non-test files
	type decl struct {
		key, name string
		self      int // occurrences of its name inside its own declaration
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
					key = f.Name.Name + "." + recv + "." + fn.Name.Name
				}
				self := 0
				ast.Inspect(fn, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == fn.Name.Name {
						self++
					}
					return true
				})
				decls = append(decls, decl{key, fn.Name.Name, self})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		switch {
		case refs[d.name] > d.self:
		case testOracles[d.key] != "":
			allowed[d.key] = true
		default:
			t.Errorf("%s: exported, but only tests call it; delete it or give it a production caller", d.key)
		}
	}
	for key := range testOracles {
		if !allowed[key] {
			t.Errorf("%s: listed in testOracles, but not a test-only function; drop it from the list", key)
		}
	}
}
