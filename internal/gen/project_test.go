package gen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// eachProjected runs fn on every file nsgen projects, named by import
// path and file.
func eachProjected(t *testing.T, fn func(from string, src []byte)) {
	t.Helper()
	for _, ps := range projectedSources {
		files, err := fs.Glob(ps.fsys, "*.go")
		if err != nil || len(files) == 0 {
			t.Fatalf("%s embeds no Go files (%v)", ps.pkg, err)
		}
		for _, name := range files {
			src, err := fs.ReadFile(ps.fsys, name)
			if err != nil {
				t.Fatal(err)
			}
			fn(ps.pkg+"/"+name, src)
		}
	}
}

// declaredAt maps each name src declares at package level, methods as
// "Type.Method", to the line it is declared on.
func declaredAt(t *testing.T, src []byte) map[string]int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	add := func(prefix string, id *ast.Ident) { names[prefix+id.Name] = fset.Position(id.Pos()).Line }
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			prefix := ""
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				prefix = recv.(*ast.Ident).Name + "."
			}
			add(prefix, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add("", id)
					}
				}
			}
		}
	}
	return names
}

// TestProjectedRegionsVet checks the region markers of every projected
// runtime file: each region balances and names a bool field of tmplData,
// no marker sits in a doc comment (gofmt would move it to the comment's
// end), and with every condition selected the projected file declares
// exactly what the runtime file declares outside its runtime-only
// regions.
func TestProjectedRegionsVet(t *testing.T) {
	eachProjected(t, func(from string, src []byte) {
		if _, err := stripRegions(src, tmplData{}.holds); err != nil {
			t.Errorf("%s: %v", from, err)
			return
		}

		f, err := parser.ParseFile(token.NewFileSet(), from, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if cg, ok := n.(*ast.CommentGroup); ok {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//nsgen:") {
						t.Errorf("%s: %s sits in a doc comment", from, c.Text)
					}
				}
			}
			return true
		})

		// The runtime-only lines, found without the projector.
		runtimeOnly := map[int]bool{}
		var open []bool
		for i, line := range strings.Split(string(src), "\n") {
			switch line = strings.TrimSpace(line); {
			case strings.HasPrefix(line, markIf):
				open = append(open, false)
			case line == markRuntime:
				open = append(open, true)
			case line == markEnd:
				open = open[:len(open)-1]
			default:
				for _, r := range open {
					runtimeOnly[i+1] = runtimeOnly[i+1] || r
				}
			}
		}
		want := declaredAt(t, src)
		for name, line := range want {
			if runtimeOnly[line] {
				delete(want, name)
			}
		}
		out, err := project(from, src, "nserver", func(string) (bool, error) { return true, nil })
		if err != nil {
			t.Fatalf("%s: %v", from, err)
		}
		got := declaredAt(t, out)
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: projection with every condition selected lost %s", from, name)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: projection declares %s, which the runtime keeps to itself", from, name)
			}
		}
	})
}

// TestStripRegionsRejectsMalformedRegions: an unbalanced region, a
// condition naming no tmplData bool field and an unknown marker each fail
// the projection.
func TestStripRegionsRejectsMalformedRegions(t *testing.T) {
	for name, src := range map[string]string{
		"unclosed":      "//nsgen:if Scheduling\nvar x int\n",
		"unopened":      "var x int\n//nsgen:end\n",
		"unknown field": "//nsgen:if Schedule\nvar x int\n//nsgen:end\n",
		"non-bool":      "//nsgen:if Quotas\nvar x int\n//nsgen:end\n",
		"bad marker":    "//nsgen:else\n",
	} {
		if _, err := stripRegions([]byte(src), tmplData{}.holds); err == nil {
			t.Errorf("%s region accepted", name)
		}
	}
}

// TestProjectionCollisionFailsGeneration: a projected name a generated
// file already declares fails generation instead of being renamed.
func TestProjectionCollisionFailsGeneration(t *testing.T) {
	a := &Artifact{Files: map[string][]byte{
		"framework.go": []byte("package nserver\n\ntype Event int\n"),
	}}
	err := a.addProjections(tmplData{Package: "nserver"})
	if err == nil || !strings.Contains(err.Error(), "declares Event") {
		t.Fatalf("colliding projection: err = %v, want a collision on Event", err)
	}
}
