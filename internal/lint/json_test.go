package lint

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

// TestToJSON pins the -json schema: field names, path relativization, chain
// serialization and the suppression fields.
func TestToJSON(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "/repo/internal/soc/soc.go", Line: 10, Column: 2},
			Analyzer: "puritycheck",
			Message:  "impure path to time.Now",
			Chain: []ChainEntry{
				{Func: "(*soc.SoC).Tick", Site: token.Position{Filename: "/repo/internal/soc/soc.go", Line: 10, Column: 2}},
				{Func: "soc.stamp"}, // no resolved site: file/line/col omitted
			},
		},
		{
			Pos:           token.Position{Filename: "/elsewhere/x.go", Line: 3, Column: 1},
			Analyzer:      "puritycheck",
			Message:       "rand.Intn uses the global generator",
			Suppressed:    true,
			Justification: "demo shim, not simulation state",
		},
	}
	out := ToJSON(diags, "/repo")
	if len(out) != 2 {
		t.Fatalf("ToJSON returned %d entries, want 2", len(out))
	}
	if out[0].File != "internal/soc/soc.go" {
		t.Errorf("path not relativized: %q", out[0].File)
	}
	if out[1].File != "/elsewhere/x.go" {
		t.Errorf("path outside base rewritten: %q", out[1].File)
	}
	if !out[1].Suppressed || out[1].Justification == "" {
		t.Errorf("suppression fields lost: %+v", out[1])
	}

	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, key := range []string{`"analyzer"`, `"file"`, `"line"`, `"col"`, `"message"`, `"chain"`, `"suppressed"`, `"justification"`} {
		if !strings.Contains(s, key) {
			t.Errorf("serialized JSON missing key %s: %s", key, s)
		}
	}
	var round []DiagnosticJSON
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(round[0].Chain) != 2 || round[0].Chain[1].File != "" {
		t.Errorf("chain did not round-trip with omitted site: %+v", round[0].Chain)
	}
}

// TestSeverity pins the severity vocabulary shared by -json and SARIF:
// warnings say "warning", everything else "error".
func TestSeverity(t *testing.T) {
	warn := Diagnostic{
		Pos:      token.Position{Filename: "/repo/a.go", Line: 1, Column: 1},
		Analyzer: "fingerprintcomplete",
		Message:  "dead key",
		Warning:  true,
	}
	errD := Diagnostic{
		Pos:      token.Position{Filename: "/repo/a.go", Line: 2, Column: 1},
		Analyzer: "fingerprintcomplete",
		Message:  "uncovered read",
	}
	out := ToJSON([]Diagnostic{warn, errD}, "/repo")
	if out[0].Severity != "warning" || out[1].Severity != "error" {
		t.Errorf("severities = %q, %q; want warning, error", out[0].Severity, out[1].Severity)
	}

	sarif, err := ToSARIF([]Diagnostic{warn, errD}, []*Analyzer{FingerprintComplete}, "/repo")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []struct {
				Level string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif, &log); err != nil {
		t.Fatal(err)
	}
	res := log.Runs[0].Results
	if len(res) != 2 || res[0].Level != "warning" || res[1].Level != "error" {
		t.Errorf("SARIF levels = %+v; want warning, error", res)
	}
}

// TestRelPath pins the boundary cases of the path rewriter.
func TestRelPath(t *testing.T) {
	for _, tc := range []struct{ base, path, want string }{
		{"/repo", "/repo/a/b.go", "a/b.go"},
		{"/repo", "/other/b.go", "/other/b.go"},
		{"", "/repo/a/b.go", "/repo/a/b.go"},
		{"/repo", "", ""},
	} {
		if got := RelPath(tc.base, tc.path); got != tc.want {
			t.Errorf("RelPath(%q, %q) = %q, want %q", tc.base, tc.path, got, tc.want)
		}
	}
}
