package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive enforces total handling of the reproduction's finite state
// spaces: a switch whose tag is a module-declared iota-style enum (a named
// integer type with two or more package-level constants, like isa.Op,
// cpu.TrapKind or rtsim.Kind) must either cover every declared constant or
// carry an explicit default. The failure this kills is silent: add
// OpIPSET's successor to the ISA and every switch that enumerates
// operations keeps compiling, keeps passing the old tests, and silently
// drops the new instruction on the floor.
//
// Scope is deliberate: only enums declared in this module (or the testdata
// package under analysis) are checked — flagging partial switches over
// stdlib types would be noise — and string-backed kinds (workload.Kernel)
// are exempt because their zero value is not a valid member, so partial
// switches there fail loudly at run time already. A case arm that is not a
// constant expression makes the switch uncheckable and it is skipped.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over module-declared iota enum types (isa.Op, cpu.TrapKind, rtsim.Kind, FSM states) must cover every declared constant or carry an explicit default",
	Run:  runExhaustive,
}

func runExhaustive(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return
	}
	members := enumMembers(pass, named)
	if len(members) < 2 {
		return
	}

	covered := map[string]bool{} // constant exact values covered by a case
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			return // explicit default: the author chose partial coverage
		}
		for _, expr := range clause.List {
			ctv, ok := pass.TypesInfo.Types[expr]
			if !ok || ctv.Value == nil {
				return // non-constant case arm: coverage is undecidable
			}
			covered[ctv.Value.ExactString()] = true
		}
	}

	var missing []string
	for _, m := range members {
		if !covered[m.val] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	pass.Reportf(sw.Switch,
		"switch over %s is not exhaustive: missing %s (add the cases or an explicit default)",
		enumTypeLabel(named), strings.Join(missing, ", "))
}

// enumMember is one declared constant of an enum type, deduplicated by
// value (covering one alias covers them all).
type enumMember struct {
	name string
	val  string // constant.Value.ExactString
	ord  int64  // numeric value, for stable reporting order
}

// enumMembers collects the enum constants of named, or nil if named is not
// an enum in scope: it must be an integer type declared in this module (or
// the package under analysis) with >= 2 same-typed package-level constants.
func enumMembers(pass *Pass, named *types.Named) []enumMember {
	obj := named.Obj()
	pkg := obj.Pkg()
	if pkg == nil {
		return nil
	}
	if pkg != pass.Pkg && !strings.HasPrefix(pkg.Path(), "l15cache/") && pkg.Path() != "l15cache" {
		return nil // stdlib or third-party enum: out of scope
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	byVal := map[string]enumMember{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		key := c.Val().ExactString()
		ord, _ := constant.Int64Val(c.Val())
		if prev, dup := byVal[key]; dup {
			// Alias constants: keep the lexically first name for messages.
			if name < prev.name {
				byVal[key] = enumMember{name: name, val: key, ord: ord}
			}
			continue
		}
		byVal[key] = enumMember{name: name, val: key, ord: ord}
	}
	members := make([]enumMember, 0, len(byVal))
	for _, m := range byVal {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].ord != members[j].ord {
			return members[i].ord < members[j].ord
		}
		return members[i].name < members[j].name
	})
	return members
}

// enumTypeLabel renders the enum type with its package name (isa.Op).
func enumTypeLabel(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
