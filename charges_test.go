package fedqcc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChargesAreWrittenOnce holds the cost model to one file. Outside
// internal/exec/charge.go, no non-test file of internal/exec or
// internal/remote writes CPUOps, IOPages or CachedPages: not by an
// assignment, an increment or a Resources literal that sets one. The kernels
// and the estimator add what an operator's Charge returns. Two functions are
// exempt: Resources.Add, which sums charges, and Server.Probe, whose health
// check is a constant and no operator's charge.
func TestChargesAreWrittenOnce(t *testing.T) {
	files := 0
	for _, dir := range []string{"internal/exec", "internal/remote"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "charge.go" {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, w := range chargeWrites(t, path, src) {
				t.Error(w)
			}
		}
	}
	if files < 15 {
		t.Fatalf("only %d files checked: the directories moved", files)
	}

	// The check itself must notice every kind of write, and exempt only the
	// two functions by receiver and name.
	planted := `package exec
func (s *Sort) run(ctx *Context) { ctx.Res.CPUOps += 1; ctx.Res.IOPages = 2; ctx.Res.CachedPages++ }
func (s *Sort) lit() Resources { return Resources{OutBytes: 1, CachedPages: 1} }
func (s *Sort) Add(o Resources) { s.r.CPUOps += o.CPUOps }
func (r *Resources) Add(o Resources) { r.CPUOps += o.CPUOps }
func (r Resources) zero() Resources { return Resources{OutBytes: 3} }
`
	got := chargeWrites(t, "planted.go", []byte(planted))
	if len(got) != 5 || !strings.Contains(got[4], "Sort.Add") {
		t.Fatalf("the planted writes were not all reported (want 5, the last in Sort.Add):\n%s", strings.Join(got, "\n"))
	}
}

// chargeWrites returns a line for each write to a charged field in src that
// is not in one of the exempt functions.
func chargeWrites(t *testing.T, path string, src []byte) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	charged := map[string]bool{"CPUOps": true, "IOPages": true, "CachedPages": true}
	exempt := map[string]bool{"Resources.Add": true, "Server.Probe": true}
	isCharged := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && charged[sel.Sel.Name]
	}
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		name := "package scope"
		if ok {
			name = fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, isStar := recv.(*ast.StarExpr); isStar {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
		}
		if exempt[name] {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			written := false
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					written = written || isCharged(lhs)
				}
			case *ast.IncDecStmt:
				written = isCharged(x.X)
			case *ast.CompositeLit:
				if name := typeName(x.Type); name == "Resources" || name == "exec.Resources" {
					for _, elt := range x.Elts {
						kv, keyed := elt.(*ast.KeyValueExpr)
						written = written || !keyed || charged[kv.Key.(*ast.Ident).Name]
					}
				}
			}
			if written {
				out = append(out, fmt.Sprintf("%s: %s writes a charge outside charge.go", fset.Position(n.Pos()), name))
			}
			return true
		})
	}
	return out
}

// typeName renders a composite literal's named type, as in exec.Resources,
// and "" for any other type.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return typeName(x.X) + "." + x.Sel.Name
	}
	return ""
}
