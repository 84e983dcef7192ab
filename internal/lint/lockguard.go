package lint

import (
	"go/ast"
	"go/types"
)

// LockGuard enforces consistent mutex discipline on struct fields: if any
// method of a type accesses a field while holding the struct's own
// sync.Mutex/sync.RWMutex, then every method must hold it for that field.
// The seeding case is internal/metrics' Registry, whose instrument maps are
// guarded by `mu`: one forgotten Lock in a rarely-exercised method is a
// data race the detector only sees if a test happens to drive both paths
// concurrently.
//
// The lock-region model is linear and per-method: a call to recv.mu.Lock /
// RLock opens a region, recv.mu.Unlock / RUnlock closes it, and a deferred
// unlock leaves the region open to the end of the method (the dominant
// pattern in this repository). Function literals inside a method are
// skipped — a closure's execution time is not tied to the lock state at its
// definition site. Fields never accessed under the lock are unconstrained.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "a struct field accessed under the struct's own sync.Mutex/RWMutex in any method must be accessed under it in every method",
	Run:  runLockGuard,
}

// lockFieldAccess is one access to a guarded candidate field.
type lockFieldAccess struct {
	field  *types.Var
	sel    *ast.SelectorExpr
	method string
	locked bool
}

func runLockGuard(pass *Pass) error {
	// Struct types declared in this package that embed a mutex by value.
	guards := map[*types.Named]*types.Var{} // owner type -> its mutex field
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if isMutexType(st.Field(i).Type()) {
				guards[named] = st.Field(i)
				break // first mutex is the guard; multi-lock structs are out of scope
			}
		}
	}
	if len(guards) == 0 {
		return nil
	}

	accesses := map[*types.Named][]lockFieldAccess{}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			owner, recvObj := methodOwner(pass, fd)
			mutexField, guarded := guards[owner]
			if !guarded || recvObj == nil {
				continue
			}
			collectLockAccesses(pass, fd, owner, recvObj, mutexField, accesses)
		}
	}

	// Diagnostics are sorted by position in Run, so iteration order over
	// the owner map does not reach the output.
	for owner, accs := range accesses {
		lockedFields := map[*types.Var]bool{}
		for _, a := range accs {
			if a.locked {
				lockedFields[a.field] = true
			}
		}
		for _, a := range accs {
			if a.locked || !lockedFields[a.field] {
				continue
			}
			pass.Reportf(a.sel.Sel.Pos(),
				"field %s.%s is accessed under %s.%s elsewhere; this access in %s does not hold the lock",
				owner.Obj().Name(), a.field.Name(),
				owner.Obj().Name(), guards[owner].Name(), a.method)
		}
	}
	return nil
}

// isMutexType reports sync.Mutex / sync.RWMutex (by value).
func isMutexType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// methodOwner resolves fd's receiver to the named type it belongs to and
// the receiver variable object.
func methodOwner(pass *Pass, fd *ast.FuncDecl) (*types.Named, *types.Var) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named, sig.Recv()
}

// collectLockAccesses walks fd's body in source order, tracking the linear
// lock depth of recv.<mutexField> and recording every access to the other
// fields of owner through the receiver.
func collectLockAccesses(pass *Pass, fd *ast.FuncDecl, owner *types.Named, recv *types.Var, mutexField *types.Var, out map[*types.Named][]lockFieldAccess) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures: lock state at definition is meaningless
		case *ast.DeferStmt:
			// A deferred unlock keeps the region open; a deferred lock
			// would be nonsense. Either way the defer body is not part of
			// the linear flow.
			return false
		case *ast.CallExpr:
			if kind := mutexOpOn(pass, n, recv, mutexField); kind != 0 {
				depth += kind
				return false
			}
		case *ast.SelectorExpr:
			field := fieldOf(pass, n)
			if field == nil || field == mutexField {
				break
			}
			if !receiverField(pass, n, recv, owner) {
				break
			}
			out[owner] = append(out[owner], lockFieldAccess{
				field:  field,
				sel:    n,
				method: fd.Name.Name,
				locked: depth > 0,
			})
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// mutexOpOn reports +1 for recv.<mu>.Lock/RLock, -1 for Unlock/RUnlock, 0
// otherwise.
func mutexOpOn(pass *Pass, call *ast.CallExpr, recv *types.Var, mutexField *types.Var) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	var delta int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return 0
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	if fieldOf(pass, inner) != mutexField {
		return 0
	}
	if id, ok := ast.Unparen(inner.X).(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != recv {
		return 0
	}
	return delta
}

// receiverField reports whether sel is recv.<field> — a direct access to a
// field of the guarded struct through the method receiver.
func receiverField(pass *Pass, sel *ast.SelectorExpr, recv *types.Var, owner *types.Named) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[id] == recv
}
