package lint

// WakeupSafe machine-checks the kernel wakeup protocol of DESIGN.md §11,
// the contract the event-driven time-skipping kernel rests on (and that
// the simulators' tests only probe dynamically, against cycle-by-cycle
// reference loops):
//
//  1. every NextWakeup implementation must be *pure over its receiver* —
//     a wakeup probe that mutates state makes the probe itself advance
//     the simulation, so the skipping kernel diverges from a cycle-by-
//     cycle run the moment it asks. Receiver-field writes anywhere in the
//     transitive callee closure are reported with the full call chain,
//     and so are the puritycheck determinism sinks (wall-clock, global
//     rand, env/FS reads) — a wakeup computed from host state breaks
//     run-to-run determinism even if it mutates nothing;
//  2. every NextWakeup implementation must handle kernel.Never: an impl
//     that can never report "idle" silently forbids time-skipping for
//     the whole system. Referencing the Never constant (or ^uint64(0)),
//     or delegating to kernel.Earliest or another unit's NextWakeup,
//     counts as handling;
//  3. AdvanceTo callers must not pass a cycle derived from an
//     unvalidated NextWakeup: a raw wakeup may be Never (2^64-1), and
//     jumping there deadlocks the clock at the end of time. The
//     reaching-definitions pass traces the argument back to its
//     defining expressions; a NextWakeup result must pass through the
//     kernel.Earliest clamp (matched by callee name, so testdata and
//     future helper packages participate) before it may reach AdvanceTo.
//
// Like puritycheck, calls through function values are not resolvable and
// not treated as impure; facts propagate caller-ward over the module
// call graph so a write three helpers deep still surfaces on the
// protocol method that can reach it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WakeupSafe is the wakeup-protocol analyzer.
var WakeupSafe = &Analyzer{
	Name:      "wakeupsafe",
	Doc:       "enforces the kernel wakeup protocol: NextWakeup implementations must be pure over their receiver (no field writes, no determinism sinks, full chains reported), must handle kernel.Never, and AdvanceTo callers must clamp NextWakeup-derived cycles with kernel.Earliest",
	RunModule: runWakeupSafe,
}

// isNextWakeupImpl reports whether node implements the wakeup probe:
// a method named NextWakeup with no parameters returning uint64.
func isNextWakeupImpl(node *CallNode) bool {
	if node.Decl == nil || node.Decl.Recv == nil || node.Decl.Name.Name != "NextWakeup" {
		return false
	}
	sig, ok := node.Fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint64
}

func runWakeupSafe(mp *ModulePass) error {
	g := mp.Graph
	fs := NewFactSet(g)

	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if node.Decl == nil {
			continue
		}
		seedReceiverWriteFacts(fs, node)
		seedWakeupSinkFacts(fs, node)
	}
	fs.Propagate()

	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if isNextWakeupImpl(node) {
			reportWakeupImpurity(mp, fs, node)
			if !handlesNever(node.Pkg, node.Decl) {
				mp.ReportAt(node.Pkg.Fset.Position(node.Decl.Name.Pos()), nil,
					"%s never reports kernel.Never: an always-runnable unit forbids time-skipping for the whole system; return Never when idle, or suppress with the justification that the unit genuinely never idles",
					DisplayName(node.Fn))
			}
		}
		if node.Decl != nil {
			checkAdvanceToCalls(mp, node)
		}
	}
	return nil
}

// seedReceiverWriteFacts marks node if its body writes through its
// receiver (field assignment, indexed element write, inc/dec). Writes to
// plain locals are fine; rebinding the receiver variable itself only
// changes the local copy and is ignored.
func seedReceiverWriteFacts(fs *FactSet, node *CallNode) {
	fd := node.Decl
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recv, ok := node.Pkg.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	if !ok {
		return
	}
	seedWrite := func(target ast.Expr, pos token.Pos) {
		if base := baseIdentOf(target); base != nil {
			if v, ok := objOf(node.Pkg, base).(*types.Var); ok && v == recv && target != base {
				fs.Seed(node.ID, Fact{
					Kind:   "state-write",
					Sink:   "write to receiver state (" + exprString(target) + ")",
					Origin: node.Pkg.Fset.Position(pos),
				})
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				seedWrite(ast.Unparen(lhs), lhs.Pos())
			}
		case *ast.IncDecStmt:
			seedWrite(ast.Unparen(n.X), n.X.Pos())
		case *ast.UnaryExpr:
			// &recv.field handed out lets the callee write it; treat the
			// exposure as a write (conservative, rare on probe paths).
			if n.Op == token.AND {
				seedWrite(ast.Unparen(n.X), n.Pos())
			}
		}
		return true
	})
}

// seedWakeupSinkFacts seeds the puritycheck determinism sinks without
// the runner/flight carve-outs: a wakeup probe may not consult the wall
// clock even in an exempted package.
func seedWakeupSinkFacts(fs *FactSet, node *CallNode) {
	g := fs.graph
	for _, edge := range node.Calls {
		callee := g.Nodes[edge.Callee]
		kind := classifySink(callee.Fn)
		if kind == "" {
			continue
		}
		fs.Seed(node.ID, Fact{
			Kind:   kind,
			Sink:   DisplayName(callee.Fn),
			Origin: node.Pkg.Fset.Position(edge.Pos),
		})
	}
}

// reportWakeupImpurity reports every state-write or sink fact held by a
// NextWakeup implementation, chain attached.
func reportWakeupImpurity(mp *ModulePass, fs *FactSet, node *CallNode) {
	for _, f := range fs.FactsOf(node.ID) {
		chain := fs.Chain(node.ID, f)
		switch f.Kind {
		case "state-write":
			mp.ReportAt(f.Origin, chain,
				"%s must be pure over its receiver but reaches a %s: %s; a wakeup probe that mutates state desynchronises the time-skipping kernel from a cycle-by-cycle run",
				DisplayName(node.Fn), f.Sink, ChainString(chain))
		case "wall-clock", "global-rand", "fs-read":
			mp.ReportAt(f.Origin, chain,
				"%s must not consult host state but reaches %s (%s): %s; a wakeup computed from the host breaks kernel equivalence",
				DisplayName(node.Fn), f.Sink, f.Kind, ChainString(chain)+" -> "+f.Sink)
		}
	}
}

// handlesNever reports whether the probe can report idleness: it
// references the Never constant (or the ^uint64(0) spelling), or
// delegates to kernel.Earliest or another unit's NextWakeup.
func handlesNever(pkg *Package, fd *ast.FuncDecl) bool {
	handled := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Never" {
				handled = true
			}
		case *ast.Ident:
			if n.Name == "Never" {
				handled = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.XOR {
				handled = true // ^uint64(0) and friends
			}
		case *ast.CallExpr:
			switch calleeIdentName(n) {
			case "Earliest", "NextWakeup":
				handled = true
			}
		}
		return !handled
	})
	return handled
}

// checkAdvanceToCalls inspects every X.AdvanceTo(arg) call in node's
// body: arg must not contain, or be defined from, an unclamped
// NextWakeup result.
func checkAdvanceToCalls(mp *ModulePass, node *CallNode) {
	pkg := node.Pkg
	var rd *ReachingDefs
	reaching := func(use *ast.Ident) []*Def {
		if rd == nil {
			rd = NewCFG(node.Decl.Body).ReachingDefs(pkg.Info, node.Decl)
		}
		return rd.DefsReaching(use)
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "AdvanceTo" {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return true
		}
		arg := call.Args[0]
		// Direct: the argument expression itself computes the wakeup.
		if nw := unclampedNextWakeup(pkg, arg); nw != nil {
			mp.ReportAt(pkg.Fset.Position(call.Pos()), nil,
				"AdvanceTo receives a NextWakeup result without the kernel.Earliest clamp: a raw wakeup may be kernel.Never and jumping there deadlocks the clock; wrap it in Earliest")
			return true
		}
		// Indirect: a definition reaching an identifier in the argument
		// computes it.
		var flagged bool
		ast.Inspect(arg, func(a ast.Node) bool {
			if flagged {
				return false
			}
			id, ok := a.(*ast.Ident)
			if !ok {
				return true
			}
			for _, def := range reaching(id) {
				if def.RHS == nil {
					continue
				}
				if nw := unclampedNextWakeup(pkg, def.RHS); nw != nil {
					flagged = true
					mp.ReportAt(pkg.Fset.Position(call.Pos()), nil,
						"AdvanceTo receives a cycle derived from an unclamped NextWakeup (defined at line %d): a raw wakeup may be kernel.Never and jumping there deadlocks the clock; wrap the probe in kernel.Earliest",
						pkg.Fset.Position(def.Site.Pos()).Line)
					return false
				}
			}
			return true
		})
		return true
	})
}

// unclampedNextWakeup returns a NextWakeup call inside root that is not
// enclosed by an Earliest(...) clamp, or nil.
func unclampedNextWakeup(pkg *Package, root ast.Expr) *ast.CallExpr {
	var clamps []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && calleeIdentName(call) == "Earliest" {
			clamps = append(clamps, call)
		}
		return true
	})
	inClamp := func(n ast.Node) bool {
		for _, c := range clamps {
			if c.Pos() <= n.Pos() && n.End() <= c.End() {
				return true
			}
		}
		return false
	}
	var found *ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && calleeIdentName(call) == "NextWakeup" && !inClamp(call) {
			found = call
		}
		return true
	})
	return found
}

// calleeIdentName returns the syntactic name of the called function:
// the selector's field or the bare identifier.
func calleeIdentName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// baseIdentOf unwraps selector/index/star chains to the base identifier
// (nil when the base is not an identifier).
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a small lvalue chain for diagnostics (best-effort,
// identifiers and selectors only).
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return "?"
}
