// Package stickyerr enforces that durability verdicts are never dropped:
// an error returned by a method of a type annotated //ocasta:durable
// (GroupCommit, SegmentedAOF, ReplLog, os.File, bufio.Writer — the types
// whose Close/Sync/Flush is where buffered writes meet the disk) must be
// checked. Discarding one is allowed only explicitly — `_ = f.Close()`
// with an explanatory comment on the same or preceding line — and
// deferred or goroutine-spawned calls that drop the error are flagged
// because there is no way to observe it at all.
//
// Tests are excluded: teardown in _test.go legitimately discards errors.
package stickyerr

import (
	"go/ast"
	"go/types"
	"strings"

	"ocasta/internal/lint"
)

// Analyzer is the stickyerr rule.
var Analyzer = &lint.Analyzer{
	Name: "stickyerr",
	Doc: "error results of methods on //ocasta:durable types (SegmentedAOF, " +
		"GroupCommit, ReplLog, os.File, bufio.Writer) must be checked, or " +
		"discarded explicitly with `_ =` plus a comment",
	SkipTests: true,
	Run:       run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		commented := commentLines(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if recv, m := durableErrCall(pass, n.X); m != "" {
					pass.Reportf(n.Pos(), "result of (%s).%s carries a durability verdict; check it or discard with `_ =` and a comment", recv, m)
				}
			case *ast.DeferStmt:
				if recv, m := durableErrCall(pass, n.Call); m != "" {
					pass.Reportf(n.Pos(), "deferred (%s).%s discards its durability error; close explicitly on the success path", recv, m)
				}
			case *ast.GoStmt:
				if recv, m := durableErrCall(pass, n.Call); m != "" {
					pass.Reportf(n.Pos(), "go (%s).%s discards its durability error", recv, m)
				}
			case *ast.AssignStmt:
				checkBlankDiscard(pass, n, commented)
			}
			return true
		})
	}
	return nil
}

// checkBlankDiscard flags `_ = durableCall()` without an explanatory
// comment on the same or preceding line.
func checkBlankDiscard(pass *lint.Pass, n *ast.AssignStmt, commented map[int]bool) {
	if len(n.Rhs) != 1 {
		return
	}
	for _, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	recv, m := durableErrCall(pass, n.Rhs[0])
	if m == "" {
		return
	}
	line := pass.Fset.Position(n.Pos()).Line
	if !commented[line] && !commented[line-1] {
		pass.Reportf(n.Pos(), "explicit discard of (%s).%s needs a comment saying why the durability error does not matter here", recv, m)
	}
}

// durableErrCall reports whether e is a call to an error-returning method
// on an //ocasta:durable type, returning the receiver type's short name
// and the method name.
func durableErrCall(pass *lint.Pass, e ast.Expr) (recvName, method string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok {
		return "", ""
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return "", ""
	}
	key := lint.TypeKey(selection.Recv())
	if key == "" || !pass.Ann.Durable[key] {
		return "", ""
	}
	if !returnsError(fn) {
		return "", ""
	}
	return shortName(key), fn.Name()
}

// returnsError reports whether fn's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// shortName trims the package path from an annotation key:
// "ocasta/internal/ttkv.ReplLog" -> "ttkv.ReplLog", "os.File" -> "os.File".
func shortName(key string) string {
	slash := -1
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			slash = i
			break
		}
	}
	return key[slash+1:]
}

// commentLines records which lines of f carry any comment.
func commentLines(pass *lint.Pass, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			// linttest expectation markers are not explanatory comments.
			if strings.HasPrefix(c.Text, "// want ") {
				continue
			}
			start := pass.Fset.Position(c.Pos()).Line
			end := pass.Fset.Position(c.End()).Line
			for l := start; l <= end; l++ {
				lines[l] = true
			}
		}
	}
	return lines
}
