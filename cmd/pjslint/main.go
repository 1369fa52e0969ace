// Command pjslint runs the simulator's determinism & invariant static
// analyses (package pjs/internal/lint) over the module and exits
// non-zero on findings. It is part of the tier-1 gate:
//
//	go vet ./... && go run ./cmd/pjslint ./... && go build ./... && go test -race ./...
//
// Usage:
//
//	pjslint ./...              # whole module (the default)
//	pjslint ./internal/sched   # one subtree
//	pjslint -list              # describe the checks and exit
//
// Findings print one per line as
//
//	file:line:col: pjslint/<check>: message
//
// with module-relative paths, sorted by position and byte-identical
// across runs. That line is the CI contract: the problem matcher in
// .github/pjslint-problem-matcher.json parses it into PR annotations.
// Packages are analyzed by a worker pool sized from GOMAXPROCS, but
// findings are always emitted in sorted package order, so the output is
// byte-identical to a serial run. A finding can be suppressed at one
// site with a justified directive on the same line or the line above:
//
//	//lint:ignore pjslint/<check> <reason>
//
// Exit status: 0 clean, 1 findings (or lost stdout), 2 usage/load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"pjs/internal/cli"
	"pjs/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := cli.Wrap(stdoutW)
	stderr := cli.Wrap(stderrW)

	fs := flag.NewFlagSet("pjslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the registered checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, c := range lint.AllChecks() {
			stdout.Printf("%-12s %s\n", c.Name(), c.Doc())
		}
		return cli.Exit("pjslint", 0, stdout, stderr)
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		stderr.Println("pjslint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		stderr.Println("pjslint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := expand(loader, patterns)
	if err != nil {
		stderr.Println("pjslint:", err)
		return 2
	}

	checks := lint.AllChecks()
	results := lintPackages(loader, paths, checks, runtime.GOMAXPROCS(0))

	// Merge in sorted package order: the pool changes wall-clock, never
	// bytes. The first load error wins, exactly as in a serial sweep.
	var diags []lint.Diagnostic
	for _, r := range results {
		if r.err != nil {
			stderr.Println("pjslint:", r.err)
			return 2
		}
		diags = append(diags, r.diags...)
	}

	for _, d := range diags {
		stdout.Println(rel(root, d))
	}
	code := 0
	if len(diags) > 0 {
		stderr.Printf("pjslint: %d finding(s)\n", len(diags))
		code = 1
	}
	return cli.Exit("pjslint", code, stdout, stderr)
}

// pkgResult is one package's outcome, slotted by its position in the
// sorted path list.
type pkgResult struct {
	diags []lint.Diagnostic
	err   error
}

// lintPackages analyzes the packages with a pool of at most workers
// goroutines. The loader's singleflight cache makes concurrent Load
// calls safe and shared; each worker alone analyzes the package it
// loaded. Results land in path order, so callers see deterministic
// output regardless of worker count.
func lintPackages(loader *lint.Loader, paths []string, checks []lint.Check, workers int) []pkgResult {
	if workers > len(paths) {
		workers = len(paths)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]pkgResult, len(paths))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				p, err := loader.Load(paths[i])
				if err != nil {
					results[i].err = err
					continue
				}
				results[i].diags = lint.Run(p, checks)
			}
		}()
	}
	for i := range paths {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// expand resolves package patterns ("./...", "dir/...", "dir") into
// module import paths, deduplicated and sorted.
func expand(l *lint.Loader, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(paths []string) {
		for _, p := range paths {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		dir, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if rel, err := filepath.Rel(l.Root, dir); err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module %s", pat, l.Module)
		}
		if recursive {
			paths, err := l.ModulePackages(dir)
			if err != nil {
				return nil, err
			}
			add(paths)
			continue
		}
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		add([]string{ip})
	}
	return out, nil
}

// rel renders a diagnostic with a module-relative path when the file is
// inside the module.
func rel(root string, d lint.Diagnostic) string {
	path := d.Pos.Filename
	if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
		path = filepath.ToSlash(r)
	}
	return fmt.Sprintf("%s:%d:%d: pjslint/%s: %s",
		path, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}
