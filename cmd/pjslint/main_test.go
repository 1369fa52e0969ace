package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"pjs/internal/lint"
)

// dirtyTrees are fixture packages with known findings, including
// directive-parser findings, which carry the synthetic check name
// "directive".
var dirtyTrees = []string{
	"../../internal/lint/testdata/src/detrand",
	"../../internal/lint/testdata/src/directive",
	"../../internal/lint/testdata/src/wallclock",
}

// TestOutputDeterminism is the tier-1 determinism satellite for the
// driver itself: two runs over the same sources must be byte-identical
// — diagnostics sorted by position, module-relative paths, no map
// order anywhere in the pipeline.
func TestOutputDeterminism(t *testing.T) {
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		code := run(dirtyTrees, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("run %d: want exit 1 (findings), got %d (stderr: %s)", i, code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
			continue
		}
		if stdout.String() != first {
			t.Errorf("output differs between runs:\n--- first ---\n%s--- second ---\n%s",
				first, stdout.String())
		}
	}
}

// TestProblemMatcherParsesOutput pins the CI annotation contract: every
// line pjslint prints on a dirty tree is parsed by the problem matcher
// CI registers, into a module-relative .go file, a position, a
// registered check name and a message.
func TestProblemMatcherParsesOutput(t *testing.T) {
	raw, err := os.ReadFile("../../.github/pjslint-problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp  string `json:"regexp"`
				File    int    `json:"file"`
				Line    int    `json:"line"`
				Column  int    `json:"column"`
				Code    int    `json:"code"`
				Message int    `json:"message"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad problem matcher JSON: %v", err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", m)
	}
	pat := m.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile: %v", err)
	}

	names := map[string]bool{"directive": true}
	for _, c := range lint.AllChecks() {
		names[c.Name()] = true
	}
	word := regexp.MustCompile(`^[a-z]+$`)
	for name := range names {
		if !word.MatchString(name) {
			t.Errorf("check name %q does not match [a-z]+, so the matcher cannot annotate it", name)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(dirtyTrees, &stdout, &stderr); code != 1 {
		t.Fatalf("want exit 1 (findings), got %d (stderr: %s)", code, stderr.String())
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
		g := re.FindStringSubmatch(line)
		if g == nil {
			t.Errorf("problem matcher does not parse %q", line)
			continue
		}
		if f := g[pat.File]; strings.HasPrefix(f, "/") {
			t.Errorf("file group %q is not module-relative", f)
		}
		if g[pat.Line] == "0" || g[pat.Column] == "0" || g[pat.Message] == "" {
			t.Errorf("incomplete annotation from %q", line)
		}
		code := g[pat.Code]
		if !names[code] {
			t.Errorf("code group %q is not a registered check name", code)
		}
		seen[code] = true
	}
	for _, want := range []string{"detrand", "directive", "wallclock"} {
		if !seen[want] {
			t.Errorf("no %s finding parsed from the fixture trees", want)
		}
	}
}

// TestListMode describes every registered check and exits clean.
func TestListMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("want exit 0, got %d", code)
	}
	for _, name := range []string{
		"wallclock", "detrand", "stablesort", "maporder", "errwrite",
		"exhaustive", "actparity", "globalmut", "timetaint", "seedflow",
		"allocfree", "staleignore",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing check %q", name)
		}
	}
}

// TestRemovedFlagsRejected pins that -list is the only flag: the old
// output-format and worker-count flags are unknown and exit 2.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "./..."},
		{"-sarif", "./..."},
		{"-j", "1", "./..."},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: want exit 2, got %d", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr should name the unknown flag: %s", args, stderr.String())
		}
	}
}

// TestParallelMatchesSerial pins the worker-pool determinism contract:
// a one-worker sweep and a wide parallel sweep over the same trees
// produce identical findings in identical order.
func TestParallelMatchesSerial(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	trees := append([]string{"../../internal/lint/testdata/src/maporder"}, dirtyTrees...)
	render := func(workers int) string {
		loader, err := lint.NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := expand(loader, trees)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, r := range lintPackages(loader, paths, lint.AllChecks(), workers) {
			if r.err != nil {
				t.Fatalf("%d workers: %v", workers, r.err)
			}
			for _, d := range r.diags {
				out.WriteString(rel(root, d) + "\n")
			}
		}
		return out.String()
	}
	serial, parallel := render(1), render(8)
	if serial == "" {
		t.Fatal("fixture trees should yield findings")
	}
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestBadPattern rejects paths outside the module with exit 2.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"/"}, &stdout, &stderr); code != 2 {
		t.Fatalf("want exit 2, got %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "outside module") {
		t.Errorf("stderr should explain the rejection: %s", stderr.String())
	}
}

// TestCleanPackage exits 0 with no output on a clean package.
func TestCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"../../internal/cli"}, &stdout, &stderr); code != 0 {
		t.Fatalf("want exit 0, got %d (stderr: %s)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean package produced output: %s", stdout.String())
	}
}
