// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public entry points
// (workload.Generate, sched.RunChecked, experiment.Runner with
// Experiment.Run, and metrics.FromResult), checks that the outputs are
// correct, and prints every end-to-end metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload preempt-8k --seed 1 --seconds 10 --trace 0
//
// A run sets up several times (set-up is trace generation plus
// scheduler or runner construction; setup_s is the median), runs and
// discards one warm-up operation, settles the collector, then times
// whole passes over the workload's operations for about --seconds (at
// least one pass). Load is closed-loop: one simulation at a time in
// this process. After the timed phase a correctness pass re-runs every
// operation audited (see bench.verify).
//
// With --trace 1 the run also makes a traced pass and reports the
// per-layer metrics instead. Spans are recorded here, around the calls
// into each layer: trace generation, each simulation or experiment,
// every policy hook (through a delegating scheduler), every observer
// delivery, metrics.FromResult and check.Check. The program itself is
// instrumented only by the perf.Probe it already exposes. Spans stay in
// memory and are written once at exit to
// .bench_build/perfbench-<workload>.spans.tsv.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"pjs/internal/cli"
	"pjs/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, 1, ".bench_build"))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 7

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // job-count multiplier: 1 for the benchmark
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is everything one run measured.
type report struct {
	attempted, failed int
	problems          []string
	passSeconds       []float64 // wall_s samples, one per timed pass
	e2e               []metric
	layer             []metric
	spans             *tracer
}

// run is the testable entry point. scale multiplies every job count and
// outDir receives the traced run's spans.
func run(args []string, stdoutW, stderrW io.Writer, scale float64, outDir string) int {
	stdout, stderr := cli.Wrap(stdoutW), cli.Wrap(stderrW)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds the timed phase aims to fill (at least one pass runs)")
	traceFlag := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		stderr.Println("perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scale: scale}
	rep, err := measure(cfg)
	if err != nil {
		stderr.Println("perfbench:", err)
		return 1
	}
	for _, p := range rep.problems {
		stderr.Println("perfbench: FAIL", p)
	}
	if cfg.trace {
		path := filepath.Join(outDir, "perfbench-"+cfg.workload+".spans.tsv")
		if err := writeSpans(path, rep.spans); err != nil {
			stderr.Println("perfbench:", err)
			return 1
		}
		stdout.Printf("spans: %d written to %s\n", len(rep.spans.spans), path)
	}
	printReport(stdout, cfg, rep)
	return cli.Exit("perfbench", 0, stdout, stderr)
}

func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printReport prints the human-readable lines, then the JSON result as
// the last line.
func printReport(w *cli.W, cfg config, rep *report) {
	w.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	w.Printf("env: go=%s GOMAXPROCS=%d nproc=%d os/arch=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	tail := "none (fewer than 20 samples)"
	if p, v, ok := tailPercentile(rep.passSeconds); ok {
		tail = fmt.Sprintf("p%d %.6f s", p, v)
	}
	w.Printf("wall_s: median of %d timed pass(es); tail %s\n", len(rep.passSeconds), tail)
	failFrac := float64(rep.failed) / float64(rep.attempted)
	w.Printf("%-32s %14.6g %s (%d of %d operations)\n", "fail_frac", failFrac, "ratio", rep.failed, rep.attempted)
	out := map[string]any{}
	list := rep.e2e
	if cfg.trace {
		list = rep.layer
	}
	for _, m := range list {
		w.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		panic(err) // maps of strings and float64s always marshal
	}
	w.Printf("%s\n", line)
}

// measure makes one run of a workload.
func measure(cfg config) (*report, error) {
	clock := perf.Monotonic()
	rep := &report{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(clock)
		rep.spans = tr
	}

	b, err := newBench(cfg.workload, cfg.seed, cfg.scale, clock)
	if err != nil {
		return nil, err
	}
	// Set-up, several times; the traced run records the last one.
	var setups []float64
	for r := 0; r < setupReps; r++ {
		var str *tracer
		if r == setupReps-1 {
			str = tr
		}
		settleGC()
		start := clock()
		b.setup(str)
		setups = append(setups, seconds(clock()-start))
	}

	// An operation fails once for each timed execution that errors, and
	// in every pass once any check rejects it.
	n := b.ops()
	errored := make([]int, n)
	rejected := make([]bool, n)
	problem := func(i int, format string, args ...any) {
		rep.problems = append(rep.problems, b.label(i)+": "+fmt.Sprintf(format, args...))
	}
	reject := func(i int, format string, args ...any) {
		rejected[i] = true
		problem(i, format, args...)
	}

	// Warm-up: one operation, discarded.
	w := b.warmup()
	warm, warmErr := runOp(b, w, nil)

	// Timed phase: whole passes over fresh per-pass state.
	b.prepare(nil)
	settleGC()
	heap := watchHeap()
	alloc0 := allocatedBytes()
	var ref []outcome
	elapsed := 0.0
	for pass := 0; ; pass++ {
		if pass > 0 {
			b.prepare(nil)
		}
		start := clock()
		outs := make([]outcome, n)
		for i := 0; i < n; i++ {
			o, err := runOp(b, i, nil)
			rep.attempted++
			if err != nil {
				errored[i]++
				problem(i, "pass %d: %v", pass, err)
				continue
			}
			outs[i] = o
		}
		took := seconds(clock() - start)
		rep.passSeconds = append(rep.passSeconds, took)
		elapsed += took
		if pass == 0 {
			ref = outs
		} else {
			for i := range outs {
				if errored[i] == 0 && outs[i].events != ref[i].events {
					reject(i, "pass %d processed %d events, pass 0 %d", pass, outs[i].events, ref[i].events)
				}
			}
		}
		if elapsed+took > cfg.seconds {
			break
		}
	}
	allocMB := float64(allocatedBytes()-alloc0) / float64(len(rep.passSeconds)) / (1 << 20)
	heapMB := float64(heap.stop()) / (1 << 20)
	// A direct simulation depends on nothing before it, so the warm-up
	// must repeat the timed run's event count.
	if _, ok := b.(*simBench); ok && warmErr == nil && errored[w] == 0 && warm.events != ref[w].events {
		reject(w, "warm-up processed %d events, timed run %d", warm.events, ref[w].events)
	}
	slowdown := b.slowdown(ref, nil)

	// Correctness pass.
	errs, auditEntries := b.verify(ref, tr)
	for i, err := range errs {
		if err != nil && errored[i] == 0 {
			reject(i, "correctness: %v", err)
		}
	}

	rep.e2e = []metric{
		{"wall_s", "s", median(rep.passSeconds)},
		{"setup_s", "s", median(setups)},
		{"heap_peak_mb", "MB", heapMB},
		{"alloc_mb", "MB", allocMB},
		{"sim_slowdown_mean", "ratio", slowdown},
	}
	if cfg.trace {
		rep.layer = tracedPasses(b, tr, ref, rep, auditEntries, reject)
	}
	for i := range errored {
		if rejected[i] {
			rep.failed += len(rep.passSeconds)
		} else {
			rep.failed += errored[i]
		}
	}
	return rep, nil
}

// runOp runs one operation, turning a panic into an error.
func runOp(b bench, i int, t *traced) (o outcome, err error) {
	err = safely(func() error {
		var e error
		o, e = b.run(i, t)
		return e
	})
	return o, err
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
