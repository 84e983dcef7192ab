package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetMap flags map iteration with order-dependent effects in the simulator
// packages: appending to a slice declared outside the loop, or writing
// output (fmt printing, io writes), without a deterministic sort later in
// the same function. This is the classic source of run-to-run
// nondeterminism in a cycle-accurate reproduction — scheduling decisions or
// CSV rows silently reordering between runs. Its scope is the policy
// table's DetMap rows: the simulator and experiment-harness packages.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc:  "flags order-dependent map iteration in simulator packages (range over a map that appends or writes output with no subsequent sort)",
	Run:  runDetMap,
}

func runDetMap(pass *Pass) error {
	if !policyOf(pass.Pkg.Path()).DetMap {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fnBody, ok := funcBody(n)
			if !ok {
				return true
			}
			checkDetMapFunc(pass, fnBody)
			return true
		})
	}
	return nil
}

func funcBody(n ast.Node) (*ast.BlockStmt, bool) {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Body, fn.Body != nil
	case *ast.FuncLit:
		return fn.Body, fn.Body != nil
	}
	return nil, false
}

func checkDetMapFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // visited separately via funcBody
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		effect := orderSensitiveEffect(pass, rng)
		if effect == "" {
			return true
		}
		if sortedAfter(pass, body, rng.End()) {
			return true
		}
		pass.Reportf(rng.For,
			"map iteration %s without a subsequent sort; map order is randomized per run and breaks simulator determinism (collect keys and sort, or sort the result)",
			effect)
		return true
	})
}

// orderSensitiveEffect reports what makes the loop body order-dependent, or
// "" if it is order-neutral (e.g. it only fills another map or reduces with
// a commutative operation).
func orderSensitiveEffect(pass *Pass, rng *ast.RangeStmt) string {
	effect := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isAppendToOuter(pass, call, rng) {
			effect = "appends to a slice declared outside the loop"
			return false
		}
		if name := outputCallName(pass, call); name != "" {
			effect = "writes output via " + name
			return false
		}
		return true
	})
	return effect
}

// isAppendToOuter reports whether call is append(dst, ...) with dst
// declared outside the range statement.
func isAppendToOuter(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if obj, ok := pass.TypesInfo.Uses[fn]; !ok || obj != types.Universe.Lookup("append") {
		return false
	}
	root := call.Args[0]
	for {
		switch e := root.(type) {
		case *ast.IndexExpr:
			root = e.X
			continue
		case *ast.SelectorExpr:
			root = e.X
			continue
		}
		break
	}
	// append to a value that is fresh every iteration — a conversion like
	// append([]T(nil), xs...) or a composite literal — is order-neutral no
	// matter where the result lands.
	if conv, ok := root.(*ast.CallExpr); ok {
		if tv, ok := pass.TypesInfo.Types[conv.Fun]; ok && tv.IsType() {
			return false
		}
	}
	if _, ok := root.(*ast.CompositeLit); ok {
		return false
	}
	id, ok := root.(*ast.Ident)
	if !ok {
		return true // appending to a compound expression: assume outer
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	// Declared inside the loop body: order-neutral (fresh each iteration).
	return !(obj.Pos() >= rng.Pos() && obj.Pos() < rng.End())
}

// outputCallName recognizes printing/writing calls whose emission order is
// observable: the fmt printers and io/bufio-style Write methods.
func outputCallName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name()
		}
		return ""
	}
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Emit":
			return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)) + ")." + fn.Name()
		}
	}
	return ""
}

// sortedAfter reports whether any statement after pos (within body) calls
// into sort or slices ordering functions — the "collect then sort" idiom
// that restores determinism.
func sortedAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < pos {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				found = true
				return false
			}
		}
		return true
	})
	return found
}
