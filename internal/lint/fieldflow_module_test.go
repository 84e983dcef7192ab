package lint

// Verification of the field-sensitive analyzers against the real module,
// both directions: the shipped packages must be clean (the fingerprint
// contract holds today), and a deliberately injected violation must be
// caught (the analyzers are not vacuously clean). Injection is textual —
// the package sources are copied to a temp dir, one line is removed or
// inserted at a pinned marker, and the copy is loaded like any testdata
// package; the test fails loudly if the marker has drifted, so a refactor
// of the experiments package cannot silently disarm the check.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFieldFlowAnalyzersCleanOnModule runs both field-sensitive analyzers
// over every package in the module and requires zero unsuppressed
// findings — errors and warnings alike: the shipped fingerprint builders
// observe everything the compute paths read, encode nothing dead, and no
// shard function writes shared state.
func TestFieldFlowAnalyzersCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	pkgs, err := Load("", "../../...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := RunModule(pkgs, []*Analyzer{FingerprintComplete, SharedCapture})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		t.Errorf("field-flow finding on the real module: %s", d)
	}
}

// copyPackageSources copies a package's non-test Go files into a temp dir
// and returns it, so a test can mutate one file without touching the
// repository.
func copyPackageSources(t *testing.T, srcDir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(srcDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copied := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		copied++
	}
	if copied == 0 {
		t.Fatalf("no non-test Go files in %s", srcDir)
	}
	return dir
}

// injectIntoFile rewrites one file in dir through edit, failing the test
// if edit reports the expected marker missing.
func injectIntoFile(t *testing.T, dir, file string, edit func(src string) (string, bool)) {
	t.Helper()
	path := filepath.Join(dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := edit(string(data))
	if !ok {
		t.Fatalf("injection marker not found in %s — the experiments package was refactored; re-pin the injection site", file)
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runOnInjected loads the mutated package copy and runs one analyzer.
func runOnInjected(t *testing.T, dir string, a *Analyzer) []Diagnostic {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	diags, err := RunModule([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	return diags
}

// TestFingerprintCompleteCatchesInjectedOmission removes the instances key
// from makespanFingerprint — the builder still observes MakespanConfig
// through its other fields, but runOneDAG's cfg.Instances read is no
// longer covered — and requires the analyzer to report that exact field.
func TestFingerprintCompleteCatchesInjectedOmission(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a package copy through go list")
	}
	dir := copyPackageSources(t, filepath.Join("..", "experiments"))
	injectIntoFile(t, dir, "fingerprint.go", func(src string) (string, bool) {
		// Scope the deletion to makespanFingerprint's body, so a line
		// of the same shape in another builder stays intact and only
		// one omission exists.
		start := strings.Index(src, `memo.NewEncoder("makespan/point")`)
		if start < 0 {
			return src, false
		}
		rel := strings.Index(src[start:], "p.AppendFingerprint")
		if rel < 0 {
			return src, false
		}
		window := src[start : start+rel]
		marker := "\te.I64(\"instances\", int64(cfg.Instances))\n"
		if !strings.Contains(window, marker) {
			return src, false
		}
		return src[:start] + strings.Replace(window, marker, "", 1) + src[start+rel:], true
	})

	diags := runOnInjected(t, dir, FingerprintComplete)
	found := false
	for _, d := range diags {
		if !d.Warning && strings.Contains(d.Message, "MakespanConfig.Instances") &&
			strings.Contains(d.Message, "makespanFingerprint") {
			found = true
			if len(d.Chain) == 0 {
				t.Errorf("injected-omission finding carries no evidence chain: %s", d)
			}
		}
	}
	if !found {
		t.Errorf("analyzer missed the injected fingerprint omission; got %d diagnostic(s): %v", len(diags), diags)
	}
}

// TestSharedCaptureCatchesInjectedWrite inserts a captured-variable write
// into the acceptance sweep's shard closure and requires the analyzer to
// flag it.
func TestSharedCaptureCatchesInjectedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a package copy through go list")
	}
	dir := copyPackageSources(t, filepath.Join("..", "experiments"))
	injectIntoFile(t, dir, "acceptance.go", func(src string) (string, bool) {
		marker := "var tr acceptanceTrial\n"
		if !strings.Contains(src, marker) {
			return src, false
		}
		return strings.Replace(src, marker, marker+"\t\t\tp.Utilization++\n", 1), true
	})

	diags := runOnInjected(t, dir, SharedCapture)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "writes captured variable p.Utilization") {
			found = true
		}
	}
	if !found {
		t.Errorf("analyzer missed the injected captured write; got %d diagnostic(s): %v", len(diags), diags)
	}
}
