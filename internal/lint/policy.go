package lint

import (
	"go/ast"
	"slices"
	"strings"
)

// The policy table is the one place where the suite decides, package by
// package, which rules apply and where the carve-outs are. Rows are keyed
// by import path, never by package name: a package that merely shares a
// name with a carved-out one (a testdata "runner", a future cmd/x/flight)
// gets no exemption. Testdata stands in for a real package by declaring
// its import path in the package clause (`package runner // import
// "l15cache/internal/runner"`, see LoadDir).

// The determinism hazards puritycheck reports. A row's Allow lists the
// ones its package may use; global-rand and map-order are never allowed.
const (
	wallClock  = "wall-clock"
	globalRand = "global-rand"
	fsRead     = "fs-read"
	mapOrder   = "map-order"
)

// exportedRoots, as a PurityRoots entry, makes every exported function of
// the package an entry point.
const exportedRoots = "*"

// cmdPrefix is the import-path prefix of the command packages, where
// errdrop also checks single-error calls.
const cmdPrefix = "l15cache/cmd/"

// policy is one package's row of the table.
type policy struct {
	// Allow lists the hazard kinds the package may use. Each carve-out is
	// justified where its row is declared.
	Allow []string
	// DetMap puts the package in detmap's scope: its map iteration must not
	// have order-dependent effects.
	DetMap bool
	// PurityRoots are the names of the package's puritycheck entry points
	// (exportedRoots: every exported function).
	PurityRoots []string
	// HotRoots are the names of the package's hotalloc roots.
	HotRoots []string
	// ExportStrict makes errdrop check the export/codec writes (Write,
	// io.Copy, single-error calls) of the package.
	ExportStrict bool
	// BitmapOwner marks the package that declares the way-bitmap type:
	// bitmask's subject, and the one package exempt from its rules.
	BitmapOwner bool
	// ShardMap marks the package whose Map function is the sweep harness
	// entry point fingerprintcomplete and sharedcapture key on.
	ShardMap bool
}

// simEntry are the simulation entry-point names of the simulator packages.
var simEntry = []string{"Tick", "Step", "StepIssue", "StepDual", "Run", "Simulate"}

// hotFamily are the hot-path root names common to every hot package: the
// kernel tick/step family and the wakeup protocol.
var hotFamily = []string{"Tick", "Step", "StepIssue", "StepDual", "AdvanceTo", "NextWakeup", "sduIdle"}

// plus returns names followed by extra, without aliasing names.
func plus(names []string, extra ...string) []string {
	return append(slices.Clip(names), extra...)
}

// policies is the table.
var policies = map[string]policy{
	"l15cache/internal/cpu":     {PurityRoots: simEntry, HotRoots: hotFamily},
	"l15cache/internal/soc":     {DetMap: true, PurityRoots: simEntry, HotRoots: plus(hotFamily, "tickSDUs")},
	"l15cache/internal/l15":     {DetMap: true, PurityRoots: simEntry, HotRoots: hotFamily},
	"l15cache/internal/rtsim":   {DetMap: true, PurityRoots: simEntry, HotRoots: plus(hotFamily, "dispatch")},
	"l15cache/internal/rtos":    {PurityRoots: simEntry},
	"l15cache/internal/sched":   {DetMap: true, PurityRoots: simEntry},
	"l15cache/internal/etm":     {PurityRoots: simEntry},
	"l15cache/internal/monitor": {PurityRoots: simEntry},
	"l15cache/internal/schedsim": {DetMap: true, PurityRoots: simEntry,
		HotRoots: plus(hotFamily, "runInstance")},
	"l15cache/internal/experiments": {DetMap: true, PurityRoots: []string{exportedRoots}},
	"l15cache/internal/bitmap":      {BitmapOwner: true},

	// The flight recorder is observability, but its Emit path runs inside
	// the simulator loops, so it has roots of both kinds. Its events are
	// cycle-stamped sim-time; the wall clock only paces the live /events
	// SSE polling.
	"l15cache/internal/flight": {Allow: []string{wallClock}, PurityRoots: simEntry,
		HotRoots: plus(hotFamily, "Emit"), ExportStrict: true},

	// The sweep harness reads the wall clock for the operator-facing
	// progress/ETA gauges and trace spans only, and the filesystem for
	// the -checkpoint resume path. It must still reduce in index order.
	"l15cache/internal/runner": {Allow: []string{wallClock, fsRead}, DetMap: true, ShardMap: true},

	// The content-addressed trial cache (DESIGN.md §12) keys disk entries
	// by a hash of the full trial input, so a verified read only ever
	// replaces a computation with that computation's own bytes: it can
	// change how a result is obtained, never which result.
	"l15cache/internal/memo": {Allow: []string{fsRead}},

	// The sampler and runtime collector timestamp operator-facing
	// observations; nothing in the deterministic artifact path reads a
	// telemetry value back.
	"l15cache/internal/telemetry": {Allow: []string{wallClock}},
}

// policyOf returns the row for the package at path; packages without a
// row get the zero policy: no carve-outs, no roots, no opt-in checks.
func policyOf(path string) policy { return policies[path] }

// allows reports whether the package may use the hazard kind.
func (p policy) allows(kind string) bool { return slices.Contains(p.Allow, kind) }

// isRoot reports whether decl is named in roots.
func isRoot(roots []string, decl *ast.FuncDecl) bool {
	for _, r := range roots {
		if r == decl.Name.Name || (r == exportedRoots && decl.Name.IsExported()) {
			return true
		}
	}
	return false
}

// isCommand reports whether the package at path is one of the module's
// commands.
func isCommand(path string) bool { return strings.HasPrefix(path, cmdPrefix) }
