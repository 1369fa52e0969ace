// Package experiment reproduces every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's own
// numbering (table2, fig7, …) and produces a renderable result; the
// Runner memoizes traces and simulation runs so that experiments sharing
// a configuration (e.g. Figures 7 and 8) execute each simulation once.
package experiment

import (
	"fmt"

	"pjs/internal/check"
	"pjs/internal/core"
	"pjs/internal/fault"
	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/fcfs"
	"pjs/internal/sched/gang"
	"pjs/internal/sched/is"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// Config scales the experiment suite. The defaults reproduce the
// paper's shapes in seconds-to-minutes of CPU time; raising Jobs
// tightens the statistics.
type Config struct {
	// Jobs per generated trace (default 8000).
	Jobs int
	// Seed for trace generation (default 1).
	Seed int64
	// MaxSteps bounds each simulation (default 200M events).
	MaxSteps int64
	// Verify audits every simulation and replays it through the
	// invariant checker, panicking on any violation. Slower; used by
	// `pexp -verify` and the test suite.
	Verify bool
	// Counters, when non-nil, observes every simulation the runner
	// executes, keyed per scheme label. Because runs are memoized, a
	// run's counts land on the first experiment that actually executes
	// it; later experiments recalling the memoized result add nothing
	// — and a run recalled from the MemoDir disk cache adds nothing
	// either.
	Counters *obs.Registry
	// Faults enables deterministic processor fault injection for every
	// simulation the runner executes (the zero value disables it). Part
	// of the memo key: results cached under one fault configuration are
	// never recalled for another.
	Faults fault.Config
	// Transient enables deterministic transient suspend/restart I/O
	// fault injection for every simulation (the zero value disables
	// it). Also part of the memo key.
	Transient fault.TransientConfig
	// MemoDir, when set, persists each simulation result as a
	// checksummed memo file (memo.go) so an interrupted sweep resumes
	// without recomputing finished runs. Corrupt, truncated or foreign
	// entries fail validation and are silently regenerated.
	MemoDir string
	// Warnf receives non-fatal diagnostics (e.g. a memo save failure);
	// nil discards them.
	Warnf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Jobs == 0 {
		c.Jobs = 8000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000_000
	}
	return c
}

// traceKey identifies a workload configuration. Load is stored in
// percent so the key is hashable without float equality traps.
type traceKey struct {
	model   string
	est     workload.EstimateMode
	loadPct int
}

// runKey identifies a simulation run.
type runKey struct {
	tk       traceKey
	scheme   string
	overhead bool
}

type sumKey struct {
	rk     runKey
	filter metrics.Filter
}

// limitKey identifies a memoized TSS limit table.
type limitKey struct {
	tk   traceKey
	seed string
}

// Runner executes and memoizes simulations for the experiment suite.
type Runner struct {
	cfg       Config
	traces    map[traceKey]*workload.Trace
	results   map[runKey]*sched.Result
	summaries map[sumKey]*metrics.Summary
	limits    map[limitKey]*core.StaticLimits

	// eventsSimulated totals the engine events of the fresh simulations
	// this runner executed — memoized recalls (memory or disk) add
	// nothing, so the count reflects work actually done, the
	// denominator benchmarks report events/s against.
	eventsSimulated int64
}

// NewRunner returns a Runner with the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:       cfg.withDefaults(),
		traces:    make(map[traceKey]*workload.Trace),
		results:   make(map[runKey]*sched.Result),
		summaries: make(map[sumKey]*metrics.Summary),
		limits:    make(map[limitKey]*core.StaticLimits),
	}
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// EventsSimulated returns the total engine events of the fresh
// (non-memoized) simulations this runner has executed.
func (r *Runner) EventsSimulated() int64 { return r.eventsSimulated }

// Trace returns the (memoized) workload for a model, estimate mode and
// load factor in percent (100 = the original trace).
func (r *Runner) Trace(model string, est workload.EstimateMode, loadPct int) *workload.Trace {
	tk := traceKey{model, est, loadPct}
	if t, ok := r.traces[tk]; ok {
		return t
	}
	m, ok := workload.ModelByName(model)
	if !ok {
		panic(fmt.Sprintf("experiment: unknown model %q", model))
	}
	base := traceKey{model, est, 100}
	t, ok := r.traces[base]
	if !ok {
		t = workload.Generate(m, workload.GenOptions{
			Jobs: r.cfg.Jobs, Seed: r.cfg.Seed, Estimates: est,
		})
		r.traces[base] = t
	}
	if loadPct != 100 {
		t = t.ScaleLoad(float64(loadPct) / 100)
		r.traces[tk] = t
	}
	return t
}

// Scheme names a scheduling policy as labelled in the paper's figures.
type Scheme struct {
	// Label as it appears in the figures ("No Suspension", "IS",
	// "SF = 2", "SF = 2 Tuned", …).
	Label string
	make  func(r *Runner, tk traceKey) sched.Scheduler
	// migrates marks schemes exempt from the local-restart invariant.
	migrates bool
}

// Paper scheme constructors.

// NS is the non-preemptive aggressive-backfilling baseline.
func NS() Scheme {
	return Scheme{Label: "No Suspension", make: func(*Runner, traceKey) sched.Scheduler {
		return depthbf.New(1)
	}}
}

// IS is the Immediate Service comparison scheme.
func IS() Scheme {
	return Scheme{Label: "IS", make: func(*Runner, traceKey) sched.Scheduler {
		return is.New()
	}}
}

// FCFS is plain first-come-first-served (background baseline).
func FCFS() Scheme {
	return Scheme{Label: "FCFS", make: func(*Runner, traceKey) sched.Scheduler {
		return fcfs.New()
	}}
}

// Conservative is conservative backfilling (background baseline).
func Conservative() Scheme {
	return Scheme{Label: "Conservative", make: func(*Runner, traceKey) sched.Scheduler {
		return conservative.New()
	}}
}

// SS is plain Selective Suspension with the given factor.
func SS(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g", sf), make: func(*Runner, traceKey) sched.Scheduler {
		return ss.New(ss.Config{SF: sf})
	}}
}

// TSS is Tunable Selective Suspension; its per-category limits are
// 1.5 × the category average slowdowns measured under plain SS with the
// same suspension factor on the very same trace. The paper says only
// "1.5 times the average slowdown of the category the job belongs to";
// seeding from the scheme's own averages (rather than the NS baseline)
// reproduces its Figures 13/17 — limits seeded from NS averages
// over-protect long runners and blow up short-category worst cases, see
// the ablation-tss-seed experiment.
func TSS(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g Tuned", sf), make: func(r *Runner, tk traceKey) sched.Scheduler {
		return ss.New(ss.Config{SF: sf, Limits: r.limitsFor(tk, SS(sf))})
	}}
}

// TSSFromNS is the NS-seeded limit variant kept for the ablation.
func TSSFromNS(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g Tuned(NS)", sf), make: func(r *Runner, tk traceKey) sched.Scheduler {
		return ss.New(ss.Config{SF: sf, Limits: r.limitsFor(tk, NS())})
	}}
}

// TSSAdaptive is the single-pass TSS variant with online limits
// (an ablation of the two-pass table).
func TSSAdaptive(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g Adaptive", sf), make: func(*Runner, traceKey) sched.Scheduler {
		return ss.New(ss.Config{SF: sf, Adaptive: &core.AdaptiveLimits{}})
	}}
}

// SSMig is SS under the migratable preemption model (a suspended job
// may restart anywhere): the ablation that prices the paper's
// local-restart constraint.
func SSMig(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g Migratable", sf), migrates: true,
		make: func(*Runner, traceKey) sched.Scheduler {
			return ss.New(ss.Config{SF: sf, Migration: true})
		}}
}

// Gang is gang scheduling with the given time quantum in seconds
// (0 = the 600 s default) — the Section II alternative to backfilling.
func Gang(quantum int64) Scheme {
	label := "Gang"
	if quantum > 0 {
		label = fmt.Sprintf("Gang Q=%ds", quantum)
	}
	return Scheme{Label: label, make: func(*Runner, traceKey) sched.Scheduler {
		return gang.New(gang.Config{Quantum: quantum})
	}}
}

// DepthBF is reservation-depth backfilling: depth 1 is EASY, large
// depth approaches conservative (the paper's reference [16] spectrum).
func DepthBF(depth int) Scheme {
	return Scheme{Label: fmt.Sprintf("Depth %d", depth), make: func(*Runner, traceKey) sched.Scheduler {
		return depthbf.New(depth)
	}}
}

// SSOnce is SS with at most one suspension per job — the related-work
// mechanism (Chiang et al.) the paper contrasts with SF rate control.
func SSOnce(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g Once", sf), make: func(*Runner, traceKey) sched.Scheduler {
		return ss.New(ss.Config{SF: sf, MaxSuspensions: 1})
	}}
}

// SSNoWidthRule is SS without the half-width fairness rule (ablation of
// the Section IV-B design choice).
func SSNoWidthRule(sf float64) Scheme {
	return Scheme{Label: fmt.Sprintf("SF = %g NoWidthRule", sf), make: func(*Runner, traceKey) sched.Scheduler {
		return ss.New(ss.Config{SF: sf, DisableHalfWidthRule: true})
	}}
}

// limitsFor computes (and memoizes) a TSS limit table from a pre-pass
// of the given seed scheme on the given trace.
func (r *Runner) limitsFor(tk traceKey, seed Scheme) *core.StaticLimits {
	lk := limitKey{tk: tk, seed: seed.Label}
	if l, ok := r.limits[lk]; ok {
		return l
	}
	res := r.resultFor(runKey{tk: tk, scheme: seed.Label}, seed, false)
	sum := metrics.FromResult(res, metrics.All)
	l := core.LimitsFromSlowdowns(sum.SlowdownTable())
	r.limits[lk] = l
	return l
}

// Result runs (or recalls) a simulation.
func (r *Runner) Result(model string, est workload.EstimateMode, loadPct int, sc Scheme, oh bool) *sched.Result {
	tk := traceKey{model, est, loadPct}
	return r.resultFor(runKey{tk: tk, scheme: sc.Label, overhead: oh}, sc, oh)
}

func (r *Runner) resultFor(rk runKey, sc Scheme, oh bool) *sched.Result {
	if res, ok := r.results[rk]; ok {
		return res
	}
	if r.cfg.MemoDir != "" {
		// A disk-memoized run was verified (if Verify) before it was
		// saved; recalling it skips the checker along with the
		// simulation.
		if res, ok := r.loadMemo(r.memoKey(rk)); ok {
			r.results[rk] = res
			return res
		}
	}
	t := r.Trace(rk.tk.model, rk.tk.est, rk.tk.loadPct)
	opt := sched.Options{
		MaxSteps:  r.cfg.MaxSteps,
		Audit:     r.cfg.Verify,
		Faults:    r.cfg.Faults,
		Transient: r.cfg.Transient,
	}
	if oh {
		opt.Overhead = overhead.Disk{}
	}
	if r.cfg.Counters != nil {
		opt.Observer = r.cfg.Counters.For(rk.scheme, t.Procs)
	}
	res := sched.Run(t, sc.make(r, rk.tk), opt)
	r.eventsSimulated += res.Events
	if r.cfg.Verify {
		// Transient read retries pad run segments with backoff time, so
		// exact work conservation only holds without them.
		copt := check.Options{
			ZeroOverhead:   !oh && !r.cfg.Transient.Enabled(),
			AllowMigration: sc.migrates,
		}
		if err := check.Check(res.Audit, copt); err != nil {
			panic(fmt.Sprintf("experiment: %s on %s: %v", sc.Label, t.Name, err))
		}
		res.Audit = nil // free the memory once checked
	}
	r.results[rk] = res
	if r.cfg.MemoDir != "" {
		r.saveMemo(r.memoKey(rk), res)
	}
	return res
}

// Summary runs a simulation and summarizes it under a filter.
func (r *Runner) Summary(model string, est workload.EstimateMode, loadPct int, sc Scheme, oh bool, f metrics.Filter) *metrics.Summary {
	tk := traceKey{model, est, loadPct}
	rk := runKey{tk: tk, scheme: sc.Label, overhead: oh}
	sk := sumKey{rk: rk, filter: f}
	if s, ok := r.summaries[sk]; ok {
		return s
	}
	s := metrics.FromResult(r.resultFor(rk, sc, oh), f)
	r.summaries[sk] = s
	return s
}
