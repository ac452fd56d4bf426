package gen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/admission"
	"repro/internal/eventproc"
	"repro/internal/events"
	"repro/internal/nserver"
)

// projectedSources are the runtime packages nsgen projects instead of
// restating: each embeds its own files (Source), and each file becomes a
// file of the generated package, stripped to the selected options.
//
// A file marks option-dependent code with regions. "//nsgen:if F" opens
// one kept only when the tmplData bool field F is set ("//nsgen:if !F":
// only when it is not), "//nsgen:runtime" one no framework keeps, and
// "//nsgen:end" closes either; regions nest. gofmt moves directive-shaped
// lines to the end of a doc comment, so a blank line keeps every marker
// out of one.
var projectedSources = []struct {
	pkg  string
	fsys fs.FS
}{
	{"repro/internal/events", events.Source},
	{"repro/internal/admission", admission.Source},
	{"repro/internal/eventproc", eventproc.Source},
	{"repro/internal/nserver", nserver.Source},
}

const (
	markIf      = "//nsgen:if "
	markRuntime = "//nsgen:runtime"
	markEnd     = "//nsgen:end"
)

// holds evaluates a region condition, "F" or "!F", against d.
func (d tmplData) holds(cond string) (bool, error) {
	field, negate := strings.CutPrefix(cond, "!")
	v := reflect.ValueOf(d).FieldByName(field)
	if v.Kind() != reflect.Bool {
		return false, fmt.Errorf("%q names no bool field of tmplData", cond)
	}
	return v.Bool() != negate, nil
}

// stripRegions drops the marker lines of src, with the blank line after
// each, and the lines of every runtime region and of every if-region
// whose condition keep rejects.
func stripRegions(src []byte, keep func(cond string) (bool, error)) ([]byte, error) {
	var out bytes.Buffer
	var open []bool // per open region: whether it keeps its lines
	afterMark := false
	for i, line := range strings.SplitAfter(string(src), "\n") {
		text := strings.TrimSpace(line)
		if afterMark && text == "" {
			afterMark = false
			continue
		}
		afterMark = strings.HasPrefix(text, "//nsgen:")
		switch {
		case strings.HasPrefix(text, markIf):
			ok, err := keep(strings.TrimPrefix(text, markIf))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", i+1, err)
			}
			open = append(open, ok)
		case text == markRuntime:
			open = append(open, false)
		case text == markEnd && len(open) > 0:
			open = open[:len(open)-1]
		case afterMark:
			return nil, fmt.Errorf("line %d: %q opens or closes no region", i+1, text)
		case !slices.Contains(open, false):
			out.WriteString(line)
		}
	}
	if len(open) > 0 {
		return nil, fmt.Errorf("%d region(s) left open", len(open))
	}
	return out.Bytes(), nil
}

// project turns one runtime file into a file of package pkg: it strips
// the regions keep rejects, the package doc comment and every import the
// rest no longer uses, and renames the package clause. A file left
// declaring nothing projects to nil.
func project(from string, src []byte, pkg string, keep func(string) (bool, error)) ([]byte, error) {
	stripped, err := stripRegions(src, keep)
	if err != nil {
		return nil, fmt.Errorf("gen: project %s: %w", from, err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, from, stripped, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("gen: project %s: %w", from, err)
	}
	used := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				used[id.Name] = true
			}
		}
		return true
	})
	f.Decls = slices.DeleteFunc(f.Decls, func(d ast.Decl) bool {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			return false
		}
		gd.Specs = slices.DeleteFunc(gd.Specs, func(s ast.Spec) bool {
			is := s.(*ast.ImportSpec)
			p, _ := strconv.Unquote(is.Path.Value)
			if is.Name != nil {
				return !used[is.Name.Name]
			}
			return !used[path.Base(p)]
		})
		return len(gd.Specs) == 0
	})
	if len(f.Decls) == 0 {
		return nil, nil // nothing left to use an import either
	}
	f.Comments = slices.DeleteFunc(f.Comments, func(cg *ast.CommentGroup) bool { return cg == f.Doc })
	f.Doc, f.Name.Name = nil, pkg
	var out bytes.Buffer
	fmt.Fprintf(&out, "// Code generated by nsgen from %s. DO NOT EDIT.\n\n", from)
	if err := format.Node(&out, fset, f); err != nil {
		return nil, fmt.Errorf("gen: project %s: %w", from, err)
	}
	return out.Bytes(), nil
}

// topLevel lists the names src declares at package level, and whether
// a build constraint (//go:build) limits the file to some platforms.
func topLevel(name string, src []byte) (names []string, constrained bool, err error) {
	f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, false, err
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			constrained = constrained || c.Pos() < f.Package && strings.HasPrefix(c.Text, "//go:build")
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names, constrained, nil
}

// addProjections projects every runtime source file into a under d's
// options. A projected file or name that one already in a declares fails
// generation: nothing is renamed. Only two files that are each limited
// to some platforms may declare one name (lowat_linux.go and
// lowat_other.go).
func (a *Artifact) addProjections(d tmplData) error {
	type decl struct {
		file        string
		constrained bool
	}
	owner := map[string]decl{}
	claim := func(file string, src []byte, projected bool) error {
		names, constrained, err := topLevel(file, src)
		if err != nil {
			return fmt.Errorf("gen: %s: %w", file, err)
		}
		for _, n := range names {
			prev, dup := owner[n]
			if dup && projected && n != "_" && !(constrained && prev.constrained) {
				return fmt.Errorf("gen: projected %s declares %s, which %s already declares", file, n, prev.file)
			}
			owner[n] = decl{file, constrained}
		}
		return nil
	}
	for _, name := range a.FileNames() {
		if err := claim(name, a.Files[name], false); err != nil {
			return err
		}
	}
	for _, ps := range projectedSources {
		files, err := fs.Glob(ps.fsys, "*.go")
		if err != nil {
			return err
		}
		for _, name := range files {
			raw, err := fs.ReadFile(ps.fsys, name)
			if err != nil {
				return err
			}
			out, err := project(ps.pkg+"/"+name, raw, d.Package, d.holds)
			if err != nil {
				return err
			}
			if out == nil {
				continue
			}
			if _, dup := a.Files[name]; dup {
				return fmt.Errorf("gen: projected %s/%s collides with generated %s", ps.pkg, name, name)
			}
			if err := claim(name, out, true); err != nil {
				return err
			}
			a.Files[name] = out
		}
	}
	return nil
}
