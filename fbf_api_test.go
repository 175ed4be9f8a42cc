package fbf_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"fbf"
)

// TestPublicAPIPipeline exercises the whole facade the way the README's
// quickstart does: code → trace → simulation → figures.
func TestPublicAPIPipeline(t *testing.T) {
	code, err := fbf.NewCode("tip", 7)
	if err != nil {
		t.Fatal(err)
	}
	if code.Disks() != 8 || code.Rows() != 6 {
		t.Fatalf("unexpected geometry %dx%d", code.Rows(), code.Disks())
	}

	errors, err := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 16, Stripes: 256, Seed: 3, Disk: -1})
	if err != nil {
		t.Fatal(err)
	}

	res, err := fbf.Run(fbf.SimConfig{
		Code: code, Policy: "fbf", Strategy: fbf.StrategyLooped,
		Workers: 4, CacheChunks: 32, Stripes: 256,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.TotalRequests == 0 {
		t.Fatalf("empty result %+v", res)
	}

	params := fbf.DefaultExperimentParams()
	params.Codes = []string{"tip"}
	params.Primes = []int{5}
	params.Policies = []string{"lru", "fbf"}
	params.CacheSizesMB = []int{1, 64}
	params.Groups = 8
	params.Stripes = 128
	params.Workers = 4
	fig, err := fbf.Fig8(params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fbf.RenderFigure(&buf, fig, params.Policies); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG8") {
		t.Error("figure rendering broken through facade")
	}
}

func TestPublicAPICodesAndPolicies(t *testing.T) {
	if len(fbf.CodeNames()) != 4 {
		t.Errorf("CodeNames = %v", fbf.CodeNames())
	}
	names := fbf.PolicyNames()
	hasFBF := false
	for _, n := range names {
		if n == "fbf" {
			hasFBF = true
		}
	}
	if !hasFBF {
		t.Errorf("fbf missing from PolicyNames %v", names)
	}
	for _, ctor := range []func(int) (*fbf.Code, error){fbf.NewSTAR, fbf.NewTripleStar, fbf.NewTIP, fbf.NewHDD1} {
		code, err := ctor(5)
		if err != nil {
			t.Fatal(err)
		}
		stripe := code.NewStripe(64)
		code.Encode(stripe)
		if !code.Verify(stripe) {
			t.Errorf("%v: zero stripe should verify", code)
		}
	}
	p := fbf.NewFBF(4)
	p.SetPriorities(map[fbf.ChunkID]int{{Stripe: 0, Cell: fbf.Coord{Row: 0, Col: 0}}: 3})
	if p.Request(fbf.ChunkID{Stripe: 0, Cell: fbf.Coord{Row: 0, Col: 0}}) {
		t.Error("cold request hit")
	}
	if p.QueueLen(3) != 1 {
		t.Error("priority routing broken through facade")
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	code := fbf.MustNewCode("star", 5)
	errors, err := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 5, Stripes: 50, Seed: 1, Disk: 0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fbf.WriteTraceCSV(&buf, errors); err != nil {
		t.Fatal(err)
	}
	back, err := fbf.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(errors) {
		t.Fatal("round trip lost errors")
	}
}

// TestFacadeStaysCurated keeps fbf.go from growing a name per PR: every
// exported name must be imported as fbf.<Name> by a program under
// examples/ or a root test, and commands import the internal packages
// directly, never the facade.
func TestFacadeStaysCurated(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "fbf.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	users, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, path := range append(users, examples...) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fbf" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	exported := 0
	check := func(name *ast.Ident) {
		if !name.IsExported() {
			return
		}
		exported++
		if !used[name.Name] {
			t.Errorf("fbf.%s is imported by no example and no root test: drop it from fbf.go", name.Name)
		}
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				check(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					check(sp.Name)
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						check(name)
					}
				}
			}
		}
	}
	if exported == 0 {
		t.Fatal("parsed no exported names out of fbf.go")
	}

	err = filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"fbf"` {
				t.Errorf("%s imports the facade; commands import fbf/internal/... directly", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
