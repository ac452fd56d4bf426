package gen

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/options"
)

// TestGeneratedAdmissionMatchesRuntime pins the O9 control law an nsgen
// framework emits to the runtime's: the limiter constants of a generated
// O9 framework must equal the admission package's, so changing either
// side alone fails here.
func TestGeneratedAdmissionMatchesRuntime(t *testing.T) {
	a, err := Generate("nserver", options.COPSHTTP().WithOverloadControl(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	src := a.Files["framework.go"]
	consts := emittedConstants(t, src)
	for _, c := range []struct {
		name string
		want constant.Value
	}{
		{"admissionMinLimit", constant.MakeInt64(admission.MinLimit)},
		{"admissionTolerance", constant.MakeFloat64(admission.Tolerance)},
		{"admissionSlackNanos", constant.MakeInt64(int64(admission.Slack))},
		{"admissionDecreaseEvery", constant.MakeInt64(int64(admission.DecreaseInterval))},
		{"admissionRecoverEvery", constant.MakeInt64(int64(admission.RecoveryInterval))},
	} {
		got, ok := consts[c.name]
		if !ok {
			t.Errorf("generated framework declares no %s", c.name)
			continue
		}
		if !constant.Compare(got, token.EQL, c.want) {
			t.Errorf("generated %s = %v, runtime has %v", c.name, got, c.want)
		}
	}

	// The multiplicative decrease is an integer fraction in the generated
	// code and a float factor in the runtime.
	cuts := regexp.MustCompile(`lim = lim \* (\d+) / (\d+)`).FindAllSubmatch(src, -1)
	if len(cuts) != 1 {
		t.Fatalf("generated framework has %d multiplicative cuts, want 1", len(cuts))
	}
	num, _ := strconv.Atoi(string(cuts[0][1]))
	den, _ := strconv.Atoi(string(cuts[0][2]))
	if float64(num)/float64(den) != admission.DecreaseFactor {
		t.Errorf("generated cut * %d / %d, runtime factor %v", num, den, admission.DecreaseFactor)
	}
}

// emittedConstants evaluates every package-level const and var of one
// generated file whose value is a constant expression over literals and
// time.Millisecond / time.Second, keyed by name.
func emittedConstants(t *testing.T, src []byte) map[string]constant.Value {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "framework.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]constant.Value{
		"Millisecond": constant.MakeInt64(int64(time.Millisecond)),
		"Second":      constant.MakeInt64(int64(time.Second)),
	}
	var eval func(ast.Expr) constant.Value
	eval = func(e ast.Expr) constant.Value {
		switch e := e.(type) {
		case *ast.BasicLit:
			return constant.MakeFromLiteral(e.Value, e.Kind, 0)
		case *ast.ParenExpr:
			return eval(e.X)
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "time" {
				if v, ok := units[e.Sel.Name]; ok {
					return v
				}
			}
		case *ast.BinaryExpr:
			x, y := eval(e.X), eval(e.Y)
			if x.Kind() != constant.Unknown && y.Kind() != constant.Unknown {
				return constant.BinaryOp(x, e.Op, y)
			}
		}
		return constant.MakeUnknown()
	}
	out := make(map[string]constant.Value)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if v := eval(vs.Values[i]); v.Kind() != constant.Unknown {
						out[name.Name] = v
					}
				}
			}
		}
	}
	return out
}
