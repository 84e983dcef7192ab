package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags silently discarded error returns where they bite this
// repository: the cmd/ tools (whose exit status is the CI contract — a
// swallowed write error means a truncated report that still "succeeds")
// and the file/flush paths everywhere (Close/Flush/Sync are exactly the
// calls whose errors carry the "did the data reach disk" answer).
//
// `_ = f.Close()` remains legal as the explicit opt-out, and `defer
// f.Close()` on read paths is left alone (flagging the idiom would bury
// the real findings).
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error returns in cmd/* tools, in the flight recorder's export/codec paths (Write, io.Copy), and in Close/Flush/Sync calls everywhere; write through _ = only as a deliberate, visible choice",
	Run:  runErrDrop,
}

// flushNames are methods whose error result reports data loss.
var flushNames = map[string]bool{"Close": true, "Flush": true, "Sync": true}

// cmdOnlyNames are additionally checked inside cmd/* main packages, where
// a lost write truncates the tool's output.
var cmdOnlyNames = map[string]bool{"Write": true, "WriteString": true, "WriteFile": true, "WriteFiles": true}

// exportNames are additionally checked inside the flight recorder's
// export/codec paths: those functions stream binary ring state to files
// and HTTP responses, and a dropped Write or io.Copy error there means a
// truncated artifact that still reports success. io.Copy's (n, err)
// shape evades the single-error heuristic, so it is named explicitly.
var exportNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteTo": true, "Copy": true, "CopyN": true,
}

// neverFails lists receiver types documented to always return a nil error;
// flagging them would only teach people to ignore the analyzer.
var neverFailsRecv = map[string]bool{
	"*strings.Builder": true,
	"*bytes.Buffer":    true,
}

func runErrDrop(pass *Pass) error {
	strict := isCommand(pass.Pkg.Path())
	exportStrict := policyOf(pass.Pkg.Path()).ExportStrict
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass, call) {
				return true
			}
			name, recv := calleeName(pass, call)
			if neverFailsRecv[recv] {
				return true
			}
			interesting := flushNames[name] ||
				(strict && (cmdOnlyNames[name] || singleErrorResult(pass, call))) ||
				(exportStrict && (exportNames[name] || singleErrorResult(pass, call)))
			if !interesting {
				return true
			}
			label := name
			if recv != "" {
				label = "(" + recv + ")." + name
			}
			pass.Reportf(stmt.Pos(),
				"error from %s is silently discarded; handle it, or assign to _ to make the drop explicit",
				label)
			return true
		})
	}
	return nil
}

// returnsError reports whether the call's results include an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// singleErrorResult reports whether the call returns exactly one value, of
// type error — the strongest signal the caller was meant to look at it.
func singleErrorResult(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return false
	}
	return isErrorType(tv.Type)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// calleeName returns the called function's name and, for methods, the
// receiver type rendered with its package (e.g. "*strings.Builder").
func calleeName(pass *Pass, call *ast.CallExpr) (name, recv string) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		// Indirect call (function value): best-effort label.
		if id, ok := call.Fun.(*ast.Ident); ok {
			return id.Name, ""
		}
		return "call", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fn.Name(), types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
	}
	return fn.Name(), ""
}
