package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"pjs"
	"pjs/internal/check"
	"pjs/internal/experiment"
	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/perf"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// outcome is what one operation produced, kept so that repetitions, the
// traced pass and the correctness pass can be compared against it.
type outcome struct {
	events   int64
	finish   uint64  // digest of every job's finish time (direct simulation)
	slowdown float64 // Summary.Overall.MeanSlowdown (direct simulation)
	text     string  // Render() and CSV() of an experiment (repro)
	runNs    int64   // host time of the simulation or experiment call alone
}

// traced carries a traced pass's recorder and the per-layer counts that
// are not spans. A nil *traced runs the plain public API path; a nil tr
// runs it untraced with unobserved set.
type traced struct {
	tr         *tracer
	unobserved bool // run observed operations without their sinks
	probe      perf.Stats
	ticks      int64
	productive int64
	events     int64
	obsEvents  int64
}

// bench is one workload's generated inputs and its operations. An
// operation is one simulation run, or one experiment in repro.
type bench interface {
	// setup generates the inputs and prepares the first pass; a run
	// times it several times for setup_s.
	setup(tr *tracer)
	// prepare builds fresh per-pass state (schedulers, or an
	// experiment runner with its traces), so that a pass never reuses
	// state a previous pass mutated.
	prepare(tr *tracer)
	// ops is the number of operations in one pass.
	ops() int
	// label names operation i in diagnostics.
	label(i int) string
	// warmup is the operation run and discarded before timing.
	warmup() int
	// run executes operation i of the prepared pass.
	run(i int, t *traced) (outcome, error)
	// slowdown is sim_slowdown_mean for a pass whose outcomes are ref.
	slowdown(ref []outcome, tr *tracer) float64
	// verify is the correctness pass, outside the timed phase: it
	// returns one error (or nil) per operation and the number of audit
	// entries it checked.
	verify(ref []outcome, tr *tracer) ([]error, int64)
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"repro", "preempt-8k", "backfill-32k", "observed"}

// newBench defines a workload for seed; setup then generates its inputs.
// scale multiplies every job count; the benchmark runs at 1.
func newBench(name string, seed int64, scale float64, clock perf.Clock) (bench, error) {
	jobs := func(n int) int { return max(50, int(float64(n)*scale)) }
	switch name {
	case "repro":
		return newReproBench(seed, 3, jobs(1000), clock), nil
	case "preempt-8k":
		return &simBench{clock: clock, seed: seed, sets: 3, cells: []simCell{
			{"CTC", jobs(8000), 1.0, []string{"is", "ss:2", "tss:2"}, false},
			{"SDSC", jobs(8000), 1.0, []string{"is", "ss:2", "tss:2"}, false}}}, nil
	case "backfill-32k":
		return &simBench{clock: clock, seed: seed, sets: 3, cells: []simCell{
			{"CTC", jobs(32000), 1.4, []string{"ns", "conservative", "depth:2"}, false},
			{"SDSC", jobs(32000), 1.4, []string{"ns", "conservative", "depth:2"}, false}}}, nil
	case "observed":
		return &simBench{clock: clock, seed: seed, sets: 4, cells: []simCell{
			{"CTC", jobs(16000), 1.0, []string{"conservative"}, true},
			{"CTC", jobs(4000), 1.0, []string{"ss:2"}, true}}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// generate builds one trace whose realized offered load is pinned to
// load × the model's: the seed then varies the job mix and arrival
// pattern but not the demand, which near saturation would otherwise
// swing a run's cost several-fold between seeds.
func generate(model string, jobs int, load float64, seed int64) *workload.Trace {
	m, ok := workload.ModelByName(model)
	if !ok {
		panic("perfbench: unknown model " + model)
	}
	t := workload.Generate(m, workload.GenOptions{Jobs: jobs, Seed: seed})
	return t.ScaleLoad(load * m.OfferedLoad / t.OfferedLoad())
}

// simCell is one model, size and load run under several policies.
type simCell struct {
	model    string
	jobs     int
	load     float64
	specs    []string
	observed bool // attach the obs sinks and render their output
}

type simOp struct {
	trace    *workload.Trace
	spec     string
	observed bool
}

// simBench is a workload of direct simulations through sched.RunChecked:
// every cell's policies on sets independent trace sets.
type simBench struct {
	clock  perf.Clock
	seed   int64
	sets   int
	cells  []simCell
	list   []simOp
	scheds []sched.Scheduler
}

// setup generates the trace sets; set k of seed s uses generator seed
// 16s+k, so no two benchmark seeds share a trace.
func (b *simBench) setup(tr *tracer) {
	b.list = nil
	for k := 0; k < b.sets; k++ {
		for _, c := range b.cells {
			var t *workload.Trace
			maybeSpan(tr, spanGenerate, func() { t = generate(c.model, c.jobs, c.load, 16*b.seed+int64(k)) })
			for _, spec := range c.specs {
				b.list = append(b.list, simOp{trace: t, spec: spec, observed: c.observed})
			}
		}
	}
	b.prepare(tr)
}

func (b *simBench) prepare(*tracer) {
	b.scheds = make([]sched.Scheduler, len(b.list))
	for i, op := range b.list {
		s, err := pjs.NewScheduler(op.spec)
		if err != nil {
			panic("perfbench: " + err.Error())
		}
		b.scheds[i] = s
	}
}

func (b *simBench) ops() int { return len(b.list) }

// warmup picks the first operation on the smallest trace.
func (b *simBench) warmup() int {
	w := 0
	for i, op := range b.list {
		if len(op.trace.Jobs) < len(b.list[w].trace.Jobs) {
			w = i
		}
	}
	return w
}

func (b *simBench) label(i int) string {
	op := b.list[i]
	return fmt.Sprintf("%s on %s (%d jobs)", op.spec, op.trace.Name, len(op.trace.Jobs))
}

// sinks are the observer set of an observed operation.
type sinks struct {
	counters *obs.Counters
	sampler  *obs.Sampler
	trace    *obs.TraceBuilder
	wrapped  []*observed
}

func newSinks(spec string, t *workload.Trace) *sinks {
	return &sinks{
		counters: obs.NewCounters(spec, t.Procs),
		sampler:  obs.NewSampler(t.Procs),
		trace:    obs.NewTraceBuilder(t.Procs),
	}
}

// observer fans out to the three sinks, each wrapped in a span when
// traced.
func (s *sinks) observer(tr *tracer) sched.Observer {
	list := []sched.Observer{s.counters, s.sampler, s.trace}
	if tr != nil {
		for i, sink := range list {
			w := &observed{sink: sink, tr: tr, name: tr.id(spanObserve)}
			s.wrapped = append(s.wrapped, w)
			list[i] = w
		}
	}
	return obs.NewFanOut(list...)
}

// render writes the trace JSON, the sampler CSV and the counter tables
// to memory, as psim does to files.
func (s *sinks) render() error {
	var js, csv bytes.Buffer
	if err := s.trace.WriteJSON(&js); err != nil {
		return err
	}
	if err := s.sampler.WriteCSV(&csv); err != nil {
		return err
	}
	_ = s.counters.String() + s.counters.CategoryTable().CSV()
	return nil
}

func (b *simBench) run(i int, t *traced) (outcome, error) {
	op, s := b.list[i], b.scheds[i]
	b.scheds[i] = nil // the policy keeps its run's state; let it go after the run
	var opt sched.Options
	var tr *tracer
	var h *hooked
	runName := spanRun
	if t != nil {
		tr = t.tr
		if t.unobserved {
			runName = spanRunUnobs
		}
	}
	if tr != nil {
		h = newHooked(s, tr)
		s = h
		opt.Probe = perf.NewProbe(tr.clock)
	}
	var sk *sinks
	if op.observed && (t == nil || !t.unobserved) {
		sk = newSinks(op.spec, op.trace)
		opt.Observer = sk.observer(tr)
	}

	var res *sched.Result
	var err error
	start := b.clock()
	maybeSpan(tr, runName, func() { res, err = sched.RunChecked(op.trace, s, opt) })
	runNs := b.clock() - start
	if err != nil {
		return outcome{}, err
	}
	var sum *metrics.Summary
	maybeSpan(tr, spanSummarize, func() { sum = metrics.FromResult(res, metrics.All) })
	if sk != nil {
		maybeSpan(tr, spanRender, func() { err = sk.render() })
		if err != nil {
			return outcome{}, err
		}
	}
	if tr != nil && !t.unobserved {
		st := opt.Probe.Snapshot()
		for ph := range st {
			t.probe[ph].Calls += st[ph].Calls
			t.probe[ph].Nanos += st[ph].Nanos
		}
		t.ticks += h.ticks
		t.productive += h.productive
		t.events += res.Events
		if sk != nil {
			for _, w := range sk.wrapped {
				t.obsEvents += w.events
			}
		}
	}
	return outcome{events: res.Events, finish: finishDigest(res), slowdown: sum.Overall.MeanSlowdown, runNs: runNs}, nil
}

// finishDigest hashes every job's ID and finish time in result order.
func finishDigest(res *sched.Result) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, j := range res.Jobs {
		id, fin := uint64(j.ID), uint64(j.FinishTime)
		for k := 0; k < 8; k++ {
			buf[k], buf[8+k] = byte(id>>(8*k)), byte(fin>>(8*k))
		}
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	return h.Sum64()
}

func (b *simBench) slowdown(ref []outcome, _ *tracer) float64 {
	var g geomean
	for _, o := range ref {
		g.add(o.slowdown)
	}
	return g.value()
}

// geomean averages slowdowns, which are ratios: one trace's very slow
// policy moves it by its factor, not by its size.
type geomean struct {
	logSum float64
	n      int
}

func (g *geomean) add(v float64) { g.logSum += math.Log(v); g.n++ }

func (g *geomean) value() float64 { return math.Exp(g.logSum / float64(g.n)) }

// verify runs each operation's audited twin: the same trace under a
// fresh scheduler with the audit log on and no observer. The twin must
// pass the invariant checker and reproduce the timed run's event count
// and every job's finish time, so an observed run also shows that its
// sinks did not perturb it.
func (b *simBench) verify(ref []outcome, tr *tracer) ([]error, int64) {
	b.prepare(nil)
	errs := make([]error, len(b.list))
	var entries int64
	for i, op := range b.list {
		errs[i] = safely(func() error {
			opt := sched.Options{Audit: true}
			var res *sched.Result
			var err error
			maybeSpan(tr, spanAuditRun, func() { res, err = sched.RunChecked(op.trace, b.scheds[i], opt) })
			if err != nil {
				return err
			}
			maybeSpan(tr, spanCheck, func() { err = check.Check(res.Audit, check.Options{ZeroOverhead: true}) })
			if err != nil {
				return err
			}
			if res.Events != ref[i].events {
				return fmt.Errorf("audited twin processed %d events, timed run %d", res.Events, ref[i].events)
			}
			if finishDigest(res) != ref[i].finish {
				return errors.New("audited twin's job finish times differ from the timed run's")
			}
			entries += int64(len(res.Audit.Entries))
			return nil
		})
	}
	return errs, entries
}

// maybeSpan runs f, inside a span when tr is not nil.
func maybeSpan(tr *tracer, name string, f func()) {
	if tr != nil {
		tr.do(name, f)
		return
	}
	f()
}

// safely runs f, turning a panic into an error so that it counts as a
// failed operation instead of ending the benchmark.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// reproBench runs every registered experiment through one Runner per
// run set, as `pexp -exp all` does.
type reproBench struct {
	cfg     experiment.Config
	seeds   []int64 // Runner seed of each run set
	clock   perf.Clock
	exps    []experiment.Experiment
	runners []*experiment.Runner
}

// reproLoadTolerance bounds how far the realized offered load of a run
// set's CTC and SDSC traces may stray from the model's.
const reproLoadTolerance = 0.05

// newReproBench derives each run set's Runner seed from seed. The Runner
// generates its own traces, so their load cannot be pinned with
// ScaleLoad as the direct simulations do. At 1,000 jobs a trace's
// realized load ranges over 0.6–1.3 of the model's, and the load sweeps
// and the transient sweep cost twice as much on one seed as on another.
// Run set k of seed s therefore takes the first seed 1000(16s+k)+j, j =
// 0, 1, …, whose CTC and SDSC traces, accurate and inaccurate, all land
// within reproLoadTolerance of the model's load.
func newReproBench(seed int64, sets, jobs int, clock perf.Clock) *reproBench {
	b := &reproBench{cfg: experiment.Config{Jobs: jobs}, clock: clock}
	for k := 0; k < sets; k++ {
		c := 1000 * (16*seed + int64(k))
		for !nominalLoad(c, jobs) {
			c++
		}
		b.seeds = append(b.seeds, c)
	}
	return b
}

// nominalLoad reports whether the experiments' CTC and SDSC traces for
// generator seed c carry the model's offered load.
func nominalLoad(c int64, jobs int) bool {
	for _, rt := range reproTraces[:4] {
		m, _ := workload.ModelByName(rt.model)
		t := workload.Generate(m, workload.GenOptions{Jobs: jobs, Seed: c, Estimates: rt.est})
		if math.Abs(t.OfferedLoad()/m.OfferedLoad-1) > reproLoadTolerance {
			return false
		}
	}
	return true
}

// reproTraces are the workloads the experiments draw, generated during
// set-up so that the timed phase only simulates. The first four are the
// ones the costly experiments use.
var reproTraces = []struct {
	model string
	est   workload.EstimateMode
}{
	{"CTC", workload.EstimateAccurate}, {"SDSC", workload.EstimateAccurate},
	{"CTC", workload.EstimateInaccurate}, {"SDSC", workload.EstimateInaccurate},
	{"KTH", workload.EstimateAccurate},
}

// reproSpanned are the experiments that get their own span metric;
// they hold most of repro's time. The rest share experiment.other.
var reproSpanned = []string{"transient", "fig35", "fig38", "failures", "replication-ci"}

func (b *reproBench) setup(tr *tracer) { b.prepare(tr) }

func (b *reproBench) prepare(tr *tracer) {
	b.exps = experiment.All()
	b.runners = make([]*experiment.Runner, len(b.seeds))
	for k := range b.runners {
		b.runners[k] = newReproRunner(b.config(k, false), tr)
	}
}

// config is run set k's runner configuration.
func (b *reproBench) config(k int, verify bool) experiment.Config {
	cfg := b.cfg
	cfg.Seed = b.seeds[k]
	cfg.Verify = verify
	return cfg
}

func newReproRunner(cfg experiment.Config, tr *tracer) *experiment.Runner {
	r := experiment.NewRunner(cfg)
	for _, rt := range reproTraces {
		maybeSpan(tr, spanGenerate, func() { r.Trace(rt.model, rt.est, 100) })
	}
	return r
}

func (b *reproBench) ops() int { return len(b.seeds) * len(b.exps) }

func (b *reproBench) label(i int) string {
	return fmt.Sprintf("experiment %s (run set %d)", b.exps[i%len(b.exps)].ID, i/len(b.exps))
}

// warmup picks fig7, the first experiment that simulates. Its event
// count is not compared with the timed run's: there it recalls runs that
// earlier experiments memoized.
func (b *reproBench) warmup() int {
	for i, e := range b.exps {
		if e.ID == "fig7" {
			return i
		}
	}
	return 0
}

func reproSpanName(id string) string {
	for _, s := range reproSpanned {
		if s == id {
			return spanExperiment + id
		}
	}
	return spanExperiment + "other"
}

// runExperiment runs e through r and returns its Render() and CSV()
// output and the events it simulated.
func runExperiment(e experiment.Experiment, r *experiment.Runner, tr *tracer, span string) (string, int64, error) {
	before := r.EventsSimulated()
	var text string
	err := safely(func() error {
		maybeSpan(tr, span, func() {
			out := e.Run(r)
			text = out.Render() + out.CSV()
		})
		return nil
	})
	return text, r.EventsSimulated() - before, err
}

func (b *reproBench) run(i int, t *traced) (outcome, error) {
	e, r := b.exps[i%len(b.exps)], b.runners[i/len(b.exps)]
	var tr *tracer
	if t != nil {
		tr = t.tr
	}
	start := b.clock()
	text, events, err := runExperiment(e, r, tr, reproSpanName(e.ID))
	runNs := b.clock() - start
	if err != nil {
		return outcome{}, err
	}
	return outcome{events: events, text: text, runNs: runNs}, nil
}

// reproHeadline are the runs behind the paper's headline figures (7, 9,
// 13 and 17): sim_slowdown_mean is the geometric mean of their overall
// mean slowdowns.
// Every one is simulated by those experiments, so summarizing recalls
// memoized results and simulates nothing.
var reproHeadline = []experiment.Scheme{experiment.NS(), experiment.IS(), experiment.SS(2), experiment.TSS(2)}

func (b *reproBench) slowdown(_ []outcome, tr *tracer) float64 {
	var g geomean
	for _, r := range b.runners {
		for _, model := range []string{"CTC", "SDSC"} {
			for _, sc := range reproHeadline {
				res := r.Result(model, workload.EstimateAccurate, 100, sc, false)
				var s *metrics.Summary
				maybeSpan(tr, spanSummarize, func() { s = metrics.FromResult(res, metrics.All) })
				g.add(s.Overall.MeanSlowdown)
			}
		}
	}
	return g.value()
}

// verify re-runs every experiment through fresh runners with
// Config.Verify, which audits each simulation and replays it through the
// invariant checker; each experiment's Render() and CSV() must match the
// timed run's byte for byte, with the same event count.
//
// The runner checks and drops each audit log internally, so repro
// reports no audit entries.
func (b *reproBench) verify(ref []outcome, tr *tracer) ([]error, int64) {
	errs := make([]error, b.ops())
	for k := range b.seeds {
		r := newReproRunner(b.config(k, true), nil)
		for j, e := range b.exps {
			i := k*len(b.exps) + j
			text, events, err := runExperiment(e, r, tr, spanAuditRun)
			switch {
			case err != nil:
				errs[i] = err
			case text != ref[i].text:
				errs[i] = errors.New("output differs from the timed run's under Config.Verify")
			case events != ref[i].events:
				errs[i] = fmt.Errorf("simulated %d events under Config.Verify, timed run %d", events, ref[i].events)
			}
		}
	}
	return errs, 0
}
