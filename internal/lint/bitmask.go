package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BitMask enforces the way-bitmap discipline around internal/bitmap: the
// OW/GV/IP masks are hardware registers whose set bits must never exceed
// the configured way count ζ, and the bitmap API (Set, Clear, FromWays,
// FirstN) is the only construction path that bound-checks. Outside the
// owning package the analyzer flags
//
//   - raw shifts that produce a bitmap.Bitmap (silent overflow past ζ
//     wraps into nonexistent ways),
//   - conversions of arbitrary integers to bitmap.Bitmap that are not
//     masked to a bound (an unmasked uint32 from a register file can carry
//     bits for ways the cluster does not have),
//   - writes to another package's struct fields of bitmap type (mask
//     registers are owned by their component; cross-package pokes bypass
//     the component's invariants, e.g. GV ⊆ OW).
var BitMask = &Analyzer{
	Name: "bitmask",
	Doc:  "enforces way-bitmap discipline: no raw shifts into bitmap.Bitmap, no unbounded integer→Bitmap conversions, no cross-package writes to mask fields",
	Run:  runBitMask,
}

// isBitmapType reports whether t is the way-bitmap register type
// (bitmap.Bitmap, declared by the policy table's BitmapOwner package).
func isBitmapType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Bitmap" && obj.Pkg() != nil && policyOf(obj.Pkg().Path()).BitmapOwner
}

// elemBitmapType reports whether t is a slice/array/map whose element is
// the bitmap type (the per-core register banks: []bitmap.Bitmap).
func elemBitmapType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isBitmapType(u.Elem())
	case *types.Array:
		return isBitmapType(u.Elem())
	case *types.Map:
		return isBitmapType(u.Elem())
	}
	return false
}

func runBitMask(pass *Pass) error {
	if policyOf(pass.Pkg.Path()).BitmapOwner {
		return nil // the owning package implements the API itself
	}
	for _, file := range pass.Files {
		parents := parentMap(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if e.Op == token.SHL && isBitmapType(exprType(pass, e)) {
					pass.Reportf(e.OpPos,
						"raw shift produces a bitmap.Bitmap; use Set/FromWays/FirstN, which bound-check the way index, instead of <<")
				}
			case *ast.AssignStmt:
				checkMaskAssign(pass, e)
			case *ast.CallExpr:
				checkBitmapConversion(pass, e, parents)
			}
			return true
		})
	}
	return nil
}

func exprType(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// checkBitmapConversion flags bitmap.Bitmap(x) where x is a non-constant
// integer and neither x nor the surrounding expression masks the result to
// a bound.
func checkBitmapConversion(pass *Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || !isBitmapType(tv.Type) {
		return
	}
	arg := call.Args[0]
	argTV := pass.TypesInfo.Types[arg]
	if argTV.Value != nil {
		return // constant: reviewable at the call site
	}
	if isBitmapType(argTV.Type) {
		return // Bitmap→Bitmap identity
	}
	if boundedExpr(pass, arg) || maskedByParent(call, parents) {
		return
	}
	pass.Reportf(call.Pos(),
		"unbounded integer→bitmap.Bitmap conversion; mask to the configured way count first (e.g. .Intersect(bitmap.FirstN(ways))) so bits past ζ cannot leak into the mask logic")
}

// boundedExpr reports whether e already constrains its value: an AND-style
// mask, or a call into the bitmap package's bound-checked constructors.
func boundedExpr(pass *Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return boundedExpr(pass, x.X)
	case *ast.BinaryExpr:
		return x.Op == token.AND || x.Op == token.AND_NOT
	case *ast.CallExpr:
		if fn := calleeFunc(pass, x); fn != nil && fn.Pkg() != nil && policyOf(fn.Pkg().Path()).BitmapOwner {
			return true
		}
	}
	return false
}

// maskedByParent reports whether the conversion's surrounding expression
// immediately bounds it: an & / &^ operand, or the receiver of
// Intersect/Diff.
func maskedByParent(call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	p := parents[call]
	if pe, ok := p.(*ast.ParenExpr); ok {
		p = parents[pe]
	}
	switch parent := p.(type) {
	case *ast.BinaryExpr:
		return parent.Op == token.AND || parent.Op == token.AND_NOT
	case *ast.SelectorExpr:
		return parent.Sel.Name == "Intersect" || parent.Sel.Name == "Diff"
	}
	return false
}

// checkMaskAssign flags writes to bitmap-typed struct fields declared in
// another package.
func checkMaskAssign(pass *Pass, assign *ast.AssignStmt) {
	for _, lhs := range assign.Lhs {
		target := lhs
		if idx, ok := target.(*ast.IndexExpr); ok {
			target = idx.X
		}
		sel, ok := target.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			continue
		}
		field := selection.Obj().(*types.Var)
		if field.Pkg() == nil || field.Pkg() == pass.Pkg {
			continue
		}
		if !isBitmapType(field.Type()) && !elemBitmapType(field.Type()) {
			continue
		}
		pass.Reportf(lhs.Pos(),
			"mask field %s.%s is written outside its owning package %s; route the write through that package's API so its invariants (GV ⊆ OW, ζ bound) hold",
			field.Pkg().Name(), field.Name(), field.Pkg().Path())
	}
}

// calleeFunc resolves the called function object, if statically known.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// parentMap records each node's immediate parent within file.
func parentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
