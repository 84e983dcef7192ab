// Package lint is the repository's custom static-analysis suite: six
// analyzers that encode the simulator's correctness invariants — run-to-run
// determinism, way-bitmap discipline, metrics atomicity, error hygiene and
// godoc coverage — as machine-checked rules, plus the loader and runner
// behind cmd/codecheck.
//
// The container this repository grows in has no module proxy access, so the
// suite cannot depend on golang.org/x/tools/go/analysis. Instead this
// package is a deliberate, minimal mirror of that API (Analyzer, Pass,
// Diagnostic, an analysistest-style "// want" harness) built only on the
// standard library: packages are loaded with `go list -export` and
// type-checked from source with go/types, import resolution going through
// the compiler's export data. If the x/tools dependency ever becomes
// available, each Analyzer here converts mechanically.
//
// Suppressions follow the staticcheck convention: a comment
//
//	//lint:ignore <analyzer> <justification>
//
// on the flagged line or the line directly above it silences that analyzer
// there. The justification is mandatory; an ignore without one is itself a
// diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, the mirror of
// golang.org/x/tools/go/analysis.Analyzer. Exactly one of Run (per-package,
// syntactic/type-based) and RunModule (whole-module, interprocedural — gets
// the call graph) must be set.
type Analyzer struct {
	Name      string // short lower-case identifier, used in //lint:ignore
	Doc       string // one-paragraph description of the invariant
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// Pass carries one type-checked package through one analyzer, the mirror of
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Path      string // import path ("" for testdata packages)

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, already resolved to a file position. Chain
// carries interprocedural evidence when the analyzer has it (puritycheck's
// entry-point-to-sink path). Suppressed findings are kept — flagged, with
// the directive's justification — so machine consumers (-json) can audit
// what the ignores hide; the text output and the exit code skip them.
// Warning-severity findings (fingerprintcomplete's wasted-key-entropy
// direction) are advisory: reported in every output form but never
// blocking, and never baseline material.
type Diagnostic struct {
	Pos           token.Position
	Analyzer      string
	Message       string
	Chain         []ChainEntry
	Warning       bool // advisory severity: reported, never blocking
	Suppressed    bool
	Justification string // the //lint:ignore justification, when suppressed
	Baselined     bool   // matched an accepted-debt entry in the committed baseline
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// ModulePass carries the whole loaded module through one interprocedural
// analyzer: every package, plus the call graph built over them.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph

	diags *[]Diagnostic
}

// ReportAt records a module-level diagnostic at an already-resolved
// position, with optional interprocedural evidence.
func (mp *ModulePass) ReportAt(pos token.Position, chain []ChainEntry, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      pos,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// WarnAt records an advisory (non-blocking) module-level diagnostic.
func (mp *ModulePass) WarnAt(pos token.Position, chain []ChainEntry, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      pos,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
		Warning:  true,
	})
}

// All returns the full suite in stable order. cmd/codecheck runs exactly
// this list.
func All() []*Analyzer {
	return []*Analyzer{
		DetMap, BitMask, AtomicHandle, ErrDrop, DocComment,
		Exhaustive, PurityCheck, LockGuard, HotAlloc, WakeupSafe,
		FingerprintComplete, SharedCapture,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to one loaded package and returns the surviving
// diagnostics, sorted by position, after applying //lint:ignore
// suppressions (suppressed findings are dropped — the historical contract;
// RunModule keeps them flagged instead). Malformed ignores (no
// justification, unknown analyzer) are reported as diagnostics themselves
// so they cannot rot silently.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunModule([]*Package{pkg}, analyzers)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// RunModule applies the analyzers to every loaded package at once:
// per-package analyzers run package by package, interprocedural analyzers
// run over the call graph built across all of them. It returns every
// diagnostic — suppressed ones included, marked with the directive's
// justification — sorted by position.
func RunModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pkgDiags, err := runPackagePass(pkg, a)
			if err != nil {
				return nil, err
			}
			diags = append(diags, pkgDiags...)
		}
	}
	moduleDiags, err := runModulePasses(pkgs, analyzers, nil)
	if err != nil {
		return nil, err
	}
	diags = append(diags, moduleDiags...)
	return finishDiagnostics(pkgs, diags), nil
}

// runPackagePass applies one per-package analyzer to one package.
func runPackagePass(pkg *Package, a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Path:      pkg.ImportPath,
		diags:     &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
	}
	return diags, nil
}

// runModulePasses builds the call graph (when needed) and applies the
// interprocedural analyzers. timeOne, when non-nil, wraps each analyzer
// run for wall-time accounting.
func runModulePasses(pkgs []*Package, analyzers []*Analyzer, timeOne func(name string, run func() error) error) ([]Diagnostic, error) {
	var moduleAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
		}
	}
	if len(moduleAnalyzers) == 0 {
		return nil, nil
	}
	if timeOne == nil {
		timeOne = func(_ string, run func() error) error { return run() }
	}
	var diags []Diagnostic
	var graph *CallGraph
	if err := timeOne("(call graph)", func() error {
		graph = BuildCallGraph(pkgs)
		return nil
	}); err != nil {
		return nil, err
	}
	for _, a := range moduleAnalyzers {
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph, diags: &diags}
		if err := timeOne(a.Name, func() error { return a.RunModule(mp) }); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	return diags, nil
}

// finishDiagnostics applies suppression directives and the canonical
// position sort — the shared tail of RunModule and RunModuleParallel.
func finishDiagnostics(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		malformed = append(malformed, markSuppressions(pkg, diags)...)
	}
	diags = append(diags, malformed...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line          int    // line the directive governs (its own line)
	analyzers     string // comma-separated names or "*"
	justification string
	justified     bool
	pos           token.Position
}

// parseIgnores extracts every //lint:ignore directive from pkg, plus
// diagnostics for the malformed ones (missing justification, unknown
// analyzer name).
func parseIgnores(pkg *Package) (directives []ignoreDirective, malformed []Diagnostic) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				d := ignoreDirective{
					line:      pkg.Fset.Position(c.Pos()).Line,
					justified: len(fields) >= 2,
					pos:       pkg.Fset.Position(c.Pos()),
				}
				if len(fields) >= 1 {
					d.analyzers = fields[0]
				}
				if len(fields) >= 2 {
					d.justification = strings.Join(fields[1:], " ")
				}
				if !d.justified {
					malformed = append(malformed, Diagnostic{
						Pos:      d.pos,
						Analyzer: "ignore",
						Message:  "//lint:ignore needs an analyzer name and a justification",
					})
					continue
				}
				if d.analyzers != "*" {
					for _, n := range strings.Split(d.analyzers, ",") {
						if !known[n] {
							malformed = append(malformed, Diagnostic{
								Pos:      d.pos,
								Analyzer: "ignore",
								Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", n),
							})
						}
					}
				}
				directives = append(directives, d)
			}
		}
	}
	return directives, malformed
}

// markSuppressions flags diagnostics governed by a justified //lint:ignore
// directive (on the diagnostic's line or the line above) and returns extra
// diagnostics for malformed directives.
func markSuppressions(pkg *Package, diags []Diagnostic) []Diagnostic {
	directives, malformed := parseIgnores(pkg)
	// file -> line -> directives on that line
	index := map[string]map[int][]ignoreDirective{}
	for _, d := range directives {
		if index[d.pos.Filename] == nil {
			index[d.pos.Filename] = map[int][]ignoreDirective{}
		}
		index[d.pos.Filename][d.line] = append(index[d.pos.Filename][d.line], d)
	}

	matches := func(d ignoreDirective, analyzer string) bool {
		if !d.justified {
			return false
		}
		if d.analyzers == "*" {
			return true
		}
		for _, n := range strings.Split(d.analyzers, ",") {
			if n == analyzer {
				return true
			}
		}
		return false
	}

	for i := range diags {
		dg := &diags[i]
		if dg.Suppressed {
			continue
		}
		for _, line := range []int{dg.Pos.Line, dg.Pos.Line - 1} {
			for _, dir := range index[dg.Pos.Filename][line] {
				if matches(dir, dg.Analyzer) {
					dg.Suppressed = true
					dg.Justification = dir.justification
				}
			}
		}
	}
	return malformed
}

// IgnoreEntry is one //lint:ignore directive, for the codecheck -ignores
// audit listing.
type IgnoreEntry struct {
	Pos           token.Position `json:"-"`
	File          string         `json:"file"`
	Line          int            `json:"line"`
	Analyzers     string         `json:"analyzers"`
	Justification string         `json:"justification"`
}

// Ignores lists every suppression directive in the given packages, sorted
// by file and line — the audit trail behind `codecheck -ignores`. Malformed
// directives appear with an empty justification; the normal run already
// reports them as findings.
func Ignores(pkgs []*Package) []IgnoreEntry {
	var entries []IgnoreEntry
	for _, pkg := range pkgs {
		directives, _ := parseIgnores(pkg)
		for _, d := range directives {
			entries = append(entries, IgnoreEntry{
				Pos:           d.pos,
				File:          d.pos.Filename,
				Line:          d.pos.Line,
				Analyzers:     d.analyzers,
				Justification: d.justification,
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].File != entries[j].File {
			return entries[i].File < entries[j].File
		}
		return entries[i].Line < entries[j].Line
	})
	return entries
}
