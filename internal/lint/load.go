package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrMissingExport is the sentinel wrapped into any loader error caused by
// `go list -export` reporting a package without compiler export data. The
// usual cause is a cold or read-only build cache; `go build ./...` first
// repopulates it. Callers match it with errors.Is and can distinguish this
// recoverable condition from genuine type-check failures.
var ErrMissingExport = errors.New("package has no compiler export data")

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Incomplete bool
}

// goList invokes the go command and decodes its JSON stream. dir may be ""
// for the current directory.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportLookup builds the importer lookup function over the export-data
// files `go list -export` reported.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: %w: %q", ErrMissingExport, path)
		}
		return os.Open(file)
	}
}

// checkExports verifies that every package `go list -export` emitted carries
// export data, so a cold build cache fails fast with ErrMissingExport instead
// of surfacing later as an opaque type-check error on some unlucky import.
// The pseudo-package unsafe never has export data and is exempt.
func checkExports(entries []listEntry) error {
	var missing []string
	for _, e := range entries {
		if e.Export == "" && e.ImportPath != "unsafe" {
			missing = append(missing, e.ImportPath)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return fmt.Errorf("lint: %w: %s (run `go build ./...` to repopulate the build cache)",
		ErrMissingExport, strings.Join(missing, ", "))
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// Load resolves the package patterns (e.g. "./...") against the module in
// dir, parses every matched package's non-test Go files, and type-checks
// them from source with imports served from compiler export data. It is the
// offline, stdlib-only stand-in for golang.org/x/tools/go/packages.Load.
//
// Test files are deliberately excluded: the invariants the suite encodes
// (cycle clocks, injected seeds, deterministic iteration) bind the
// simulator itself, while tests are free to use wall-clock timeouts and the
// analyzers would drown in false positives there.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, append([]string{"list", "-json=ImportPath,Dir,GoFiles,Incomplete"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	depArgs := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Standard"}, patterns...)
	deps, err := goList(dir, depArgs...)
	if err != nil {
		return nil, err
	}
	if err := checkExports(deps); err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, d := range deps {
		if d.Export != "" {
			exports[d.ImportPath] = d.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory of Go files outside the
// module's package graph — the analysistest path for testdata packages.
// Imports (standard library or module-internal) are resolved the same way
// Load resolves them, by asking the go command for export data.
//
// The package's import path, which the policy table keys on, is the one
// its package clause declares in an import comment:
//
//	package runner // import "l15cache/internal/runner"
//
// and the bare package name otherwise. Several testdata packages can so
// stand in for one real package (three analyzers need a stand-in for
// internal/flight), and a package merely *named* runner is not the
// runner.
func LoadDir(dir string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			importSet[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		args := []string{"list", "-export", "-deps", "-json=ImportPath,Export,Standard"}
		for p := range importSet {
			args = append(args, p)
		}
		entries, err := goList("", args...)
		if err != nil {
			return nil, err
		}
		if err := checkExports(entries); err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
	}
	info := newInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exportLookup(exports)),
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(declaredPath(fset, files), fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	return &Package{Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// declaredPath returns the import path in the first `package p // import
// "path"` clause comment among files, or the package name when none
// declares one.
func declaredPath(fset *token.FileSet, files []*ast.File) string {
	for _, f := range files {
		line := fset.Position(f.Name.Pos()).Line
		for _, cg := range f.Comments {
			c := cg.List[0]
			if fset.Position(c.Pos()).Line != line {
				continue
			}
			if q, ok := strings.CutPrefix(c.Text, "// import "); ok {
				if path, err := strconv.Unquote(q); err == nil {
					return path
				}
			}
		}
	}
	return files[0].Name.Name
}
