package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PurityCheck enforces the simulator's determinism discipline: simulated
// time is a cycle counter and randomness is an injected seed, so results
// must not depend on host state. It reports two things, each sink position
// once:
//
//   - any path from a simulator entry point (the policy table's
//     PurityRoots: the Tick/Step/Run family of the simulation packages,
//     every exported function of internal/experiments) to a determinism
//     hazard — a wall-clock read, a global math/rand draw, an env/filesystem
//     read, or an order-dependent map iteration — with the full call chain
//     as evidence, so the time.Now hidden two helper calls deep in a
//     package nobody audits surfaces on the entry point that reaches it;
//   - any direct wall-clock read or global math/rand use anywhere in
//     non-test code, reached or not. A wall-clock read smuggles host timing
//     into results; the global generator's state is shared and unseeded,
//     so two runs (or two goroutines) diverge.
//
// The carve-outs are the policy table's Allow lists (policy.go).
//
// Deliberate limits, so real findings are not drowned:
//
//   - calls through function values (trap handlers, observers, runner
//     closures received as parameters) are recorded as unknown by the call
//     graph and not treated as impure;
//   - only filesystem/env *reads* are sinks. Writes (reports, CSVs,
//     checkpoints) do not feed results back into the simulation;
//   - env/filesystem reads and map order are checked on reachable paths
//     only: outside the simulation they are ordinary host I/O.
var PurityCheck = &Analyzer{
	Name:      "puritycheck",
	Doc:       "forbids wall-clock reads and global math/rand in non-test code, and reports call paths from simulator entry points (Tick/Step/Run, experiment sweeps) to those, env/FS reads or order-dependent map iteration, with the full call chain; carve-outs come from the import-path policy table",
	RunModule: runPurityCheck,
}

// wallClockFuncs are the time functions that read or depend on the host
// clock. Pure constructors/converters (time.Duration arithmetic,
// time.Unix, parsing) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// seededRandFuncs are the math/rand package-level functions that construct
// explicit generators — the approved path. Everything else at package level
// drives the shared global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors
	"NewPCG": true, "NewChaCha8": true,
}

// fsReadFuncs are the os package-level functions that read the environment
// or filesystem — inputs that can differ between hosts and runs.
var fsReadFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Open": true, "OpenFile": true, "ReadFile": true, "ReadDir": true,
	"Stat": true, "Lstat": true, "Getwd": true, "Hostname": true,
	"UserHomeDir": true, "UserConfigDir": true, "UserCacheDir": true,
	"Executable": true,
}

// classifySink classifies a called function as a determinism hazard,
// returning the fact kind ("" if the call is harmless). Methods are never
// sinks: (*rand.Rand).Intn on an injected generator is the approved path.
func classifySink(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return wallClock
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			return globalRand
		}
	case "os":
		if fsReadFuncs[fn.Name()] {
			return fsRead
		}
	}
	return ""
}

// purityFacts seeds every hazard the policy table does not allow on the
// function whose body exhibits it, and propagates the facts caller-ward.
func purityFacts(g *CallGraph) *FactSet {
	fs := NewFactSet(g)
	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if node.Decl == nil {
			continue
		}
		pol := policyOf(node.Pkg.Types.Path())
		for _, edge := range node.Calls {
			callee := g.Nodes[edge.Callee]
			kind := classifySink(callee.Fn)
			if kind == "" || pol.allows(kind) {
				continue
			}
			fs.Seed(id, Fact{
				Kind:   kind,
				Sink:   DisplayName(callee.Fn),
				Origin: node.Pkg.Fset.Position(edge.Pos),
			})
		}
		seedMapOrderFacts(fs, node)
	}
	fs.Propagate()
	return fs
}

// directMessages are the hazard kinds reported wherever they appear, reached
// or not, with their diagnostic formats.
var directMessages = map[string]string{
	wallClock:  "time.%s reads the wall clock; simulator time must come from the cycle counter (inject a tick source if timing is needed)",
	globalRand: "rand.%s uses the global generator; inject a seeded *rand.Rand so runs are reproducible",
}

func runPurityCheck(mp *ModulePass) error {
	g := mp.Graph
	fs := purityFacts(g)

	// Report each hazard once, from the first (sorted) entry point that
	// reaches it, at the sink position so the fix lands where the hazard is.
	reported := map[token.Position]bool{}
	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if node.Decl == nil || !isRoot(policyOf(node.Pkg.Types.Path()).PurityRoots, node.Decl) {
			continue
		}
		for _, f := range fs.FactsOf(id) {
			if reported[f.Origin] {
				continue
			}
			reported[f.Origin] = true
			chain := fs.Chain(id, f)
			mp.ReportAt(f.Origin, chain,
				"impure path to %s (%s) from entry point %s: %s; simulator results must not depend on host state — inject the dependency or sort",
				f.Sink, f.Kind, DisplayName(node.Fn), ChainString(chain)+" -> "+f.Sink)
		}
	}

	// Direct uses no entry point reaches: wall clock and global rand in any
	// non-test file, function values included.
	for _, pkg := range mp.Pkgs {
		pol := policyOf(pkg.Types.Path())
		for _, file := range pkg.Files {
			if isTestFile(pkg.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				kind := classifySink(fn)
				msg, direct := directMessages[kind]
				if !direct || pol.allows(kind) {
					return true
				}
				pos := pkg.Fset.Position(id.Pos())
				if reported[pos] {
					return true
				}
				reported[pos] = true
				mp.ReportAt(pos, nil, msg, fn.Name())
				return true
			})
		}
	}
	return nil
}

// seedMapOrderFacts marks node if its body (closures included) iterates a
// map with an order-dependent effect and no restoring sort — the same
// judgement detmap applies syntactically inside the sim packages, here
// turned into a fact that travels to whatever entry point can reach it.
func seedMapOrderFacts(fs *FactSet, node *CallNode) {
	pass := &Pass{Fset: node.Pkg.Fset, TypesInfo: node.Pkg.Info, Pkg: node.Pkg.Types}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
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
		if effect == "" || sortedAfter(pass, node.Decl.Body, rng.End()) {
			return true
		}
		fs.Seed(node.ID, Fact{
			Kind:   mapOrder,
			Sink:   "map iteration that " + effect,
			Origin: node.Pkg.Fset.Position(rng.For),
		})
		return true
	})
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
