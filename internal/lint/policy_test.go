package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// carveOuts is the specification the policy table must implement: every
// package allowed a determinism hazard, and exactly which ones.
var carveOuts = map[string][]string{
	"l15cache/internal/flight":    {wallClock},
	"l15cache/internal/memo":      {fsRead},
	"l15cache/internal/runner":    {wallClock, fsRead},
	"l15cache/internal/telemetry": {wallClock},
}

// hazardSource is a package with one function per hazard kind the
// carve-outs can lift, and one using the global generator, which none may.
const hazardSource = `package %s%s

import (
	"math/rand"
	"os"
	"time"
)

func Wall() int64 { return time.Now().UnixNano() }

func Env() string { return os.Getenv("L15_MODE") }

func Rand() int { return rand.Intn(8) }
`

// loadHazards writes hazardSource as package name, declaring importPath
// when it is non-empty, and loads it.
func loadHazards(t *testing.T, name, importPath string) *Package {
	t.Helper()
	clause := ""
	if importPath != "" {
		clause = fmt.Sprintf(" // import %q", importPath)
	}
	dir := t.TempDir()
	src := fmt.Sprintf(hazardSource, name, clause)
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return pkg
}

// seededKinds returns the hazard kinds puritycheck seeds on each function
// of pkg: the kinds reported wherever an entry point reaches it.
func seededKinds(pkg *Package) map[string][]string {
	g := BuildCallGraph([]*Package{pkg})
	fs := purityFacts(g)
	out := map[string][]string{}
	for _, fn := range []string{"Wall", "Env", "Rand"} {
		out[fn] = nil
		for _, f := range fs.FactsOf(FuncID(pkg.Types.Path() + "." + fn)) {
			out[fn] = append(out[fn], f.Kind)
		}
	}
	return out
}

// directFindings returns the sinks pkg's puritycheck findings name,
// sorted. No entry point reaches them, so these are the direct-use rule.
func directFindings(t *testing.T, pkg *Package) []string {
	t.Helper()
	diags, err := Run(pkg, []*Analyzer{PurityCheck})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, strings.SplitN(d.Message, " ", 2)[0])
	}
	sort.Strings(got)
	return got
}

// TestPolicyTableCarveOuts pins the carve-outs to import paths: a package
// at a carved-out path is exempt from exactly the hazard kinds its row
// lists, and a package that only shares the name is exempt from none.
func TestPolicyTableCarveOuts(t *testing.T) {
	for path, row := range policies {
		if !slices.Equal(row.Allow, carveOuts[path]) {
			t.Errorf("policy row %s allows %v, specification says %v", path, row.Allow, carveOuts[path])
		}
	}
	var paths []string
	for path := range carveOuts {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		allow := carveOuts[path]
		name := path[strings.LastIndex(path, "/")+1:]
		t.Run(name, func(t *testing.T) {
			real := loadHazards(t, name, path)
			want := map[string][]string{"Wall": {wallClock}, "Env": {fsRead}, "Rand": {globalRand}}
			for fn, kinds := range want {
				if slices.Contains(allow, kinds[0]) {
					want[fn] = nil
				}
			}
			if got := seededKinds(real); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("at %s: seeded hazards %v, want %v", path, got, want)
			}
			wantDirect := []string{"rand.Intn"}
			if !slices.Contains(allow, wallClock) {
				wantDirect = []string{"rand.Intn", "time.Now"}
			}
			if got := directFindings(t, real); !slices.Equal(got, wantDirect) {
				t.Errorf("at %s: direct findings %v, want %v", path, got, wantDirect)
			}

			namesake := loadHazards(t, name, "")
			all := map[string][]string{"Wall": {wallClock}, "Env": {fsRead}, "Rand": {globalRand}}
			if got := seededKinds(namesake); fmt.Sprint(got) != fmt.Sprint(all) {
				t.Errorf("package named %s at path %s: seeded hazards %v, want %v",
					name, namesake.Types.Path(), got, all)
			}
			if got := directFindings(t, namesake); !slices.Equal(got, []string{"rand.Intn", "time.Now"}) {
				t.Errorf("package named %s at path %s: direct findings %v, want the wall-clock read flagged too",
					name, namesake.Types.Path(), got)
			}
		})
	}
}

// TestLoadDirDeclaredPath pins how testdata packages get their import
// path: from the package clause's import comment, else the package name.
func TestLoadDirDeclaredPath(t *testing.T) {
	if got := loadHazards(t, "runner", "l15cache/internal/runner").Types.Path(); got != "l15cache/internal/runner" {
		t.Errorf("declared path = %q", got)
	}
	if got := loadHazards(t, "runner", "").Types.Path(); got != "runner" {
		t.Errorf("undeclared path = %q, want the package name", got)
	}
}
