package lint

import (
	"runtime"
	"sync"
	"testing"
)

// BenchmarkLintRepo pins the wall time of a full-repository pjslint run
// — exactly what the tier-1 gate executes — so the CFG and call-graph
// passes cannot silently regress verify latency. Each iteration builds
// a fresh Loader (the per-run cost a CI invocation pays); the stdlib
// type-check is shared process-wide and amortizes across iterations the
// same way it amortizes across the test suite.
func BenchmarkLintRepo(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	checks := AllChecks()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		paths, err := l.ModulePackages(l.Root)
		if err != nil {
			b.Fatal(err)
		}
		findings := 0
		for _, path := range paths {
			p, err := l.Load(path)
			if err != nil {
				b.Fatalf("loading %s: %v", path, err)
			}
			findings += len(Run(p, checks))
		}
		if findings != 0 {
			b.Fatalf("repository is not clean: %d findings", findings)
		}
	}
}

// BenchmarkLintRepoParallel is the same full-repository sweep through a
// worker pool sized from GOMAXPROCS — the shape cmd/pjslint runs — so
// the pool's speedup over the serial baseline stays measurable. The
// loader's singleflight cache makes the concurrent Load calls (and the
// cross-package loads actparity issues) share one type-check per
// package.
func BenchmarkLintRepoParallel(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	checks := AllChecks()
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		paths, err := l.ModulePackages(l.Root)
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]int, len(paths))
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range idx {
					p, err := l.Load(paths[k])
					if err != nil {
						b.Errorf("loading %s: %v", paths[k], err)
						return
					}
					counts[k] = len(Run(p, checks))
				}
			}()
		}
		for k := range paths {
			idx <- k
		}
		close(idx)
		wg.Wait()
		findings := 0
		for _, n := range counts {
			findings += n
		}
		if findings != 0 {
			b.Fatalf("repository is not clean: %d findings", findings)
		}
	}
}
