package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// newTestLoader builds a loader rooted at the module (two levels up from
// this package).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// want is one expected diagnostic: a fixture line and a message regexp.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe extracts `// want "regexp"` expectations from fixture sources.
var wantRe = regexp.MustCompile(`// want "([^"]+)"|// want ` + "`([^`]+)`")

// parseWants scans the fixture directory's sources for want comments.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat := m[1]
			if pat == "" {
				pat = m[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
			}
			wants = append(wants, want{file: path, line: i + 1, re: re})
		}
	}
	return wants
}

// fixtureCases pairs every check with its corpus directory (under
// testdata/src) and the synthetic import path that puts the fixture in
// the check's scope. A check may own several fixtures, one per scoped
// subsystem it guards (errwrite covers both the report and obs shapes).
// A `full` fixture is run under the whole suite instead of its single
// check: staleignore needs the other checks present, since a directive
// is only stale relative to checks that actually ran.
var fixtureCases = []struct {
	check  string
	dir    string
	asPath string
	full   bool
}{
	{check: "wallclock", dir: "wallclock", asPath: "pjs/internal/fixture/wallclock"},
	{check: "wallclock", dir: "perfclock", asPath: "pjs/internal/perf"},
	{check: "wallclock", dir: "perfclock_sched", asPath: "pjs/internal/sched/fixture/perfclock"},
	{check: "detrand", dir: "detrand", asPath: "pjs/fixture/detrand"},
	{check: "stablesort", dir: "stablesort", asPath: "pjs/internal/sched/fixture/stablesort"},
	{check: "maporder", dir: "maporder", asPath: "pjs/internal/sim/fixture/maporder"},
	{check: "maporder", dir: "maporder_interproc", asPath: "pjs/internal/sched/fixture/interproc"},
	{check: "errwrite", dir: "errwrite", asPath: "pjs/internal/report/fixture"},
	{check: "errwrite", dir: "errwrite_obs", asPath: "pjs/internal/obs/fixture"},
	{check: "exhaustive", dir: "exhaustive", asPath: "pjs/internal/fixture/exhaustive"},
	{check: "globalmut", dir: "globalmut", asPath: "pjs/internal/sim/fixture/globalmut"},
	{check: "timetaint", dir: "timetaint", asPath: "pjs/internal/fixture/timetaint"},
	{check: "seedflow", dir: "seedflow", asPath: "pjs/internal/fixture/seedflow"},
	{check: "allocfree", dir: "allocfree", asPath: "pjs/internal/fixture/allocfree"},
	{check: "staleignore", dir: "staleignore", asPath: "pjs/internal/fixture/staleignore", full: true},
}

// TestCheckFixtures runs each check over its fixture package and
// demands an exact match between produced diagnostics and the want
// comments: same file, same line, message matching the pattern — no
// extras, no misses. Suppressed sites appear in the fixtures with a
// lint:ignore directive and no want comment, so an ignored suppression
// shows up as an unexpected diagnostic.
func TestCheckFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			check, ok := CheckByName(tc.check)
			if !ok {
				t.Fatalf("no check %q", tc.check)
			}
			if !check.Applies(tc.asPath) {
				t.Fatalf("check %s does not apply to its own fixture path %s", tc.check, tc.asPath)
			}
			dir := filepath.Join("testdata", "src", tc.dir)
			l := newTestLoader(t)
			p, err := l.LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatal(err)
			}
			checks := []Check{check}
			if tc.full {
				checks = AllChecks()
			}
			matchWants(t, dir, Run(p, checks))
		})
	}
}

// matchWants demands an exact match between produced diagnostics and
// the fixture's want comments: same file, same line, message matching
// the pattern — no extras, no misses.
func matchWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, dir)
	matched := make([]bool, len(wants))
diag:
	for _, d := range diags {
		for i, w := range wants {
			if matched[i] || !sameFile(d.Pos.Filename, w.file) || d.Pos.Line != w.line {
				continue
			}
			if !w.re.MatchString(d.Message) {
				t.Errorf("%s:%d: diagnostic %q does not match want %q",
					w.file, w.line, d.Message, w.re)
			}
			matched[i] = true
			continue diag
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestFixturesCleanUnderRemainingChecks cross-applies the full suite to
// every fixture: a fixture written for one check must not trip another
// (so the corpus stays a precise specification of each rule).
func TestFixturesCleanUnderRemainingChecks(t *testing.T) {
	l := newTestLoader(t)
	for _, tc := range fixtureCases {
		p, err := l.LoadDir(filepath.Join("testdata", "src", tc.dir), tc.asPath)
		if err != nil {
			t.Fatal(err)
		}
		var others []Check
		for _, c := range AllChecks() {
			if c.Name() != tc.check {
				others = append(others, c)
			}
		}
		for _, d := range Run(p, others) {
			t.Errorf("fixture %s trips foreign check: %s", tc.check, d)
		}
	}
}

// TestDirectiveValidation checks that malformed suppressions are
// themselves diagnostics and that prose mentioning the directive is not
// parsed as one.
func TestDirectiveValidation(t *testing.T) {
	l := newTestLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "src", "directive"), "pjs/fixture/directive")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 directive diagnostics, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "directive" {
			t.Errorf("unexpected check %q in %s", d.Check, d)
		}
	}
	if !strings.Contains(diags[0].Message, `unknown check "nosuchcheck"`) {
		t.Errorf("first diagnostic should name the unknown check: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "needs a reason") {
		t.Errorf("second diagnostic should demand a reason: %s", diags[1])
	}
}

// TestStablesortCatchesReintroducedTieBug reproduces the acceptance
// criterion end-to-end in miniature: a package with the exact pre-fix
// easy.shadow sort shape, loaded under the import path the EASY policy
// had before it was folded into depthbf (any path in the stablesort
// scope will do), must yield a stablesort finding at the right position.
func TestStablesortCatchesReintroducedTieBug(t *testing.T) {
	dir := t.TempDir()
	src := `package easy

import "sort"

type rel struct {
	end   int64
	procs int
}

func shadow(rels []rel) {
	sort.Slice(rels, func(i, k int) bool { return rels[i].end < rels[k].end })
}
`
	if err := os.WriteFile(filepath.Join(dir, "easy.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/easy")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "stablesort" || d.Pos.Line != 11 {
		t.Errorf("want stablesort finding at line 11, got %s", d)
	}
}

// TestWallclockCatchesBareTimeNowInSched reproduces the acceptance
// criterion end-to-end in miniature: a bare time.Now() introduced under
// a pjs/internal/sched path — the exact regression the perf-clock
// exemption must not open — still yields a wallclock finding.
func TestWallclockCatchesBareTimeNowInSched(t *testing.T) {
	dir := t.TempDir()
	src := `package timing

import "time"

func stamp() int64 {
	return time.Now().UnixNano()
}
`
	if err := os.WriteFile(filepath.Join(dir, "timing.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/timing")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "wallclock" || !strings.Contains(d.Message, "time.Now reads the wall clock") {
		t.Errorf("want wallclock finding on time.Now, got %s", d)
	}
}

// TestTimetaintCatchesClockIntoCheckpoint reproduces the acceptance
// criterion end-to-end in miniature: a perf-clock reading flowing into
// a checkpoint payload under a sched path must yield a timetaint
// finding even under the full suite.
func TestTimetaintCatchesClockIntoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	src := `package ckpt

type Clock func() int64

type Snapshot struct {
	Now int64
}

func capture(c Clock) Snapshot {
	t := c()
	return Snapshot{Now: t}
}
`
	if err := os.WriteFile(filepath.Join(dir, "ckpt.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/ckpt")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "timetaint" || !strings.Contains(d.Message, "timing value flows into a checkpoint payload") {
		t.Errorf("want timetaint finding on the snapshot literal, got %s", d)
	}
}

// TestSeedflowCatchesTimeSeed reproduces the canonical seed bug: an RNG
// seeded from the wall clock. The fixture corpus cannot carry this
// shape (it sits under pjs/internal/, where importing time trips
// wallclock), so the time-derived seed is pinned here under a path
// outside the wallclock scope.
func TestSeedflowCatchesTimeSeed(t *testing.T) {
	dir := t.TempDir()
	src := `package seedtool

import (
	"math/rand"
	"time"
)

func fresh() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
`
	if err := os.WriteFile(filepath.Join(dir, "seed.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/tools/seedtool")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "seedflow" || !strings.Contains(d.Message, "flows into an RNG seed (math/rand.NewSource)") {
		t.Errorf("want seedflow finding on the seeded source, got %s", d)
	}
}

// TestAllocfreeCatchesAllocBeforeGuard reproduces the regression the
// marker exists for: an allocation slipped in front of the nil guard of
// a marked fast path.
func TestAllocfreeCatchesAllocBeforeGuard(t *testing.T) {
	dir := t.TempDir()
	src := `package obsfast

import "fmt"

type Env struct {
	tag string
}

//lint:allocfree nil env
func (e *Env) emit(v int) {
	msg := fmt.Sprintf("v=%d", v)
	if e == nil {
		return
	}
	e.tag = msg
}
`
	if err := os.WriteFile(filepath.Join(dir, "emit.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sched/obsfast")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "allocfree" || !strings.Contains(d.Message, "fmt.Sprintf allocates on the //lint:allocfree fast path of emit") {
		t.Errorf("want allocfree finding on the pre-guard Sprintf, got %s", d)
	}
}

// TestAllocfreeMarkerShapes pins marker well-formedness: a
// condition-less doc marker and a marker stranded inside a body are
// both diagnostics. (Tested here rather than in the fixture corpus
// because a want comment appended to the marker line would read as its
// condition.)
func TestAllocfreeMarkerShapes(t *testing.T) {
	dir := t.TempDir()
	src := `package perfx

//lint:allocfree
func bare() int {
	return 0
}

func stray() int {
	//lint:allocfree misplaced
	return 0
}
`
	if err := os.WriteFile(filepath.Join(dir, "perfx.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/perf/perfx")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, []Check{&AllocfreeCheck{}})
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 diagnostics, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a condition") {
		t.Errorf("first diagnostic should demand a condition: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "must sit in the doc comment") {
		t.Errorf("second diagnostic should reject the stray marker: %s", diags[1])
	}
}

// TestPerfClockMarkerNeedsReason pins marker well-formedness: a
// reason-less //lint:perf-clock is no exemption even inside
// pjs/internal/perf — the marker is reported AND the call it hovered
// over still fires. (Tested here rather than in the fixture corpus
// because a want comment appended to the marker line would read as its
// reason.)
func TestPerfClockMarkerNeedsReason(t *testing.T) {
	dir := t.TempDir()
	src := `package perf

import "time"

func unjustified() time.Time {
	//lint:perf-clock
	return time.Now()
}
`
	if err := os.WriteFile(filepath.Join(dir, "perf.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/perf")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, []Check{&WallclockCheck{}})
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 diagnostics, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("first diagnostic should demand a reason: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "time.Now reads the wall clock") {
		t.Errorf("second diagnostic should still ban the read: %s", diags[1])
	}
}

// TestActparityFixture runs the cross-package parity check over a
// three-package fixture loaded under the real import paths: a sched
// fixture declaring the Action enum, a check fixture missing one replay
// rule, and an obs fixture missing one counter and one trace mapping.
// The sched fixture must be loaded first so the sibling packages'
// `pjs/internal/sched` imports resolve to the fixture enum through the
// loader cache, not to the real scheduler.
func TestActparityFixture(t *testing.T) {
	l := newTestLoader(t)
	base := filepath.Join("testdata", "src", "actparity")
	schedPkg, err := l.LoadDir(filepath.Join(base, "sched"), "pjs/internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct{ dir, asPath string }{
		{"check", "pjs/internal/check"},
		{"obs", "pjs/internal/obs"},
	} {
		if _, err := l.LoadDir(filepath.Join(base, sub.dir), sub.asPath); err != nil {
			t.Fatal(err)
		}
	}
	matchWants(t, filepath.Join(base, "sched"),
		Run(schedPkg, []Check{&ActparityCheck{}}))

	// Cross-check hygiene: none of the three fixture packages may trip
	// any other rule (the enum switches carry panicking defaults, etc.).
	var others []Check
	for _, c := range AllChecks() {
		if c.Name() != "actparity" {
			others = append(others, c)
		}
	}
	for _, path := range []string{"pjs/internal/sched", "pjs/internal/check", "pjs/internal/obs"} {
		p, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run(p, others) {
			t.Errorf("actparity fixture %s trips foreign check: %s", path, d)
		}
	}
}

// TestExhaustiveCatchesDeletedCase reproduces the acceptance criterion
// end-to-end in miniature: deleting one event-kind case from a dispatch
// switch (the way a stale switch survives an enum extension) must
// produce an exhaustive finding under the full suite.
func TestExhaustiveCatchesDeletedCase(t *testing.T) {
	dir := t.TempDir()
	src := `package sim

type Kind int

const (
	Completion Kind = iota
	SuspendDone
	Arrival
)

func stale(k Kind) bool {
	switch k {
	case Completion:
		return true
	case SuspendDone:
		return false
	}
	return false
}
`
	if err := os.WriteFile(filepath.Join(dir, "sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLoader(t)
	p, err := l.LoadDir(dir, "pjs/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(p, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "exhaustive" || !strings.Contains(d.Message, "missing Arrival") {
		t.Errorf("want exhaustive finding naming Arrival, got %s", d)
	}
}

// TestModulePackagesCoversTree sanity-checks the driver's package
// walker: the module root, the scheduler packages and the lint package
// itself must all be discovered, and testdata must not.
func TestModulePackagesCoversTree(t *testing.T) {
	l := newTestLoader(t)
	paths, err := l.ModulePackages(l.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, p := range paths {
		got[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("walker descended into testdata: %s", p)
		}
	}
	for _, must := range []string{
		"pjs",
		"pjs/cmd/pjslint",
		"pjs/internal/lint",
		"pjs/internal/sched/depthbf",
		"pjs/internal/sched/speculative",
		"pjs/internal/sim",
	} {
		if !got[must] {
			t.Errorf("walker missed package %s (got %d packages)", must, len(paths))
		}
	}
}

// sameFile compares a diagnostic path against a fixture path regardless
// of absolute/relative rendering.
func sameFile(diagPath, fixturePath string) bool {
	da, err1 := filepath.Abs(diagPath)
	fa, err2 := filepath.Abs(fixturePath)
	if err1 != nil || err2 != nil {
		return filepath.Base(diagPath) == filepath.Base(fixturePath)
	}
	return da == fa
}

// TestRunOnOwnModuleIsClean is the meta-gate: the analysis suite applied
// to the whole module (the same invocation the tier-1 gate runs) must
// produce zero findings. This is what keeps the repository permanently
// at zero determinism debt.
func TestRunOnOwnModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := newTestLoader(t)
	paths, err := l.ModulePackages(l.Root)
	if err != nil {
		t.Fatal(err)
	}
	checks := AllChecks()
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, d := range Run(p, checks) {
			t.Errorf("finding on clean tree: %s", d)
		}
	}
}

// Example_suppression documents the directive syntax next to the code
// that implements it.
func Example_suppression() {
	fmt.Println(`//lint:ignore pjslint/wallclock progress timing only, never enters results`)
	// Output: //lint:ignore pjslint/wallclock progress timing only, never enters results
}
