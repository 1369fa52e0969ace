// Package pjs is the public facade of a full reproduction of
// Kettimuthu et al., "Selective Preemption Strategies for Parallel Job
// Scheduling" (ICPP 2002 / IJHPCN): an event-driven simulator for
// preemptive scheduling of rigid parallel jobs with local restart, the
// paper's Selective Suspension (SS) and Tunable Selective Suspension
// (TSS) policies, the Immediate Service (IS) and backfilling baselines,
// calibrated synthetic workloads for the CTC/SDSC/KTH logs, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	trace := pjs.Generate(pjs.CTC(), pjs.GenOptions{Jobs: 5000, Seed: 1})
//	sched, _ := pjs.NewScheduler("tss:2")
//	res := pjs.Simulate(trace, sched, pjs.Options{})
//	sum := pjs.Summarize(res, pjs.All)
//	fmt.Printf("overall slowdown: %.2f\n", sum.Overall.MeanSlowdown)
//
// The named scheduler specs accepted by NewScheduler:
//
//	fcfs               first-come-first-served
//	conservative       conservative backfilling
//	ns | easy          aggressive (EASY) backfilling, the NS baseline
//	is                 Immediate Service (Chiang & Vernon)
//	ss:SF              Selective Suspension, e.g. ss:2 or ss:1.5
//	tss:SF             Tunable SS with online-adaptive limits
//	ssmig:SF           SS under the migratable-restart model (ablation)
//	gang[:quantum]     gang scheduling, optional quantum in seconds
//	spec[:factor]      speculative backfilling (kill & requeue on a
//	                   failed gamble), optional estimate/hole factor
//	depth[:N]          reservation-depth backfilling (1 = EASY)
//
// (The experiment harness instead builds TSS limits from an NS pre-pass
// on the identical trace, the paper's two-pass construction; use
// pjs.NewTSS for explicit control.)
package pjs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pjs/internal/core"
	"pjs/internal/experiment"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/fcfs"
	"pjs/internal/sched/gang"
	"pjs/internal/sched/is"
	"pjs/internal/sched/speculative"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// Re-exported workload types and constructors.
type (
	// Trace is a stream of jobs for one machine.
	Trace = workload.Trace
	// Model is a synthetic workload model.
	Model = workload.Model
	// GenOptions parameterize synthetic generation.
	GenOptions = workload.GenOptions
	// EstimateMode selects accurate or inaccurate user estimates.
	EstimateMode = workload.EstimateMode
)

// Estimate modes.
const (
	EstimateAccurate   = workload.EstimateAccurate
	EstimateInaccurate = workload.EstimateInaccurate
)

// Job is a rigid parallel job.
type Job = job.Job

// NewJob builds a queued job by hand (most callers use Generate or
// ReadSWF instead): estimate is clamped up to run.
func NewJob(id int, submit, run, estimate int64, procs int) *Job {
	return job.New(id, submit, run, estimate, procs)
}

// CTC returns the 430-node Cornell Theory Center workload model.
func CTC() Model { return workload.CTC() }

// SDSC returns the 128-node San Diego Supercomputer Center model.
func SDSC() Model { return workload.SDSC() }

// KTH returns the 100-node Swedish Royal Institute of Technology model.
func KTH() Model { return workload.KTH() }

// ModelByName resolves "CTC", "SDSC" or "KTH".
func ModelByName(name string) (Model, bool) { return workload.ModelByName(name) }

// Generate produces a synthetic trace.
func Generate(m Model, opt GenOptions) *Trace { return workload.Generate(m, opt) }

// ReadSWF parses a Standard Workload Format trace.
func ReadSWF(r io.Reader, name string) (*Trace, error) { return workload.ReadSWF(r, name) }

// WriteSWF emits a trace in Standard Workload Format.
func WriteSWF(w io.Writer, t *Trace) error { return workload.WriteSWF(w, t) }

// Re-exported scheduling types.
type (
	// Scheduler is a scheduling policy.
	Scheduler = sched.Scheduler
	// Options configure a simulation run.
	Options = sched.Options
	// Result is a completed simulation.
	Result = sched.Result
	// Observer receives every engine event (see internal/obs for
	// ready-made sinks: counters, time-series sampler, trace exporter).
	Observer = sched.Observer
	// Summary is the per-category metric set.
	Summary = metrics.Summary
	// Filter selects the estimate-quality subset.
	Filter = metrics.Filter
)

// Metric filters.
const (
	All            = metrics.All
	WellEstimated  = metrics.WellEstimated
	BadlyEstimated = metrics.BadlyEstimated
)

// DiskOverhead returns the paper's Section V-A suspension/restart cost
// model (memory image to local disk at 2 MB/s per processor).
func DiskOverhead() Options { return Options{Overhead: overhead.Disk{}} }

// FaultConfig parameterizes deterministic processor fault injection
// (Options.Faults): exponential fail/repair processes with the given
// mean times, drawn from per-processor seeded streams. The zero value
// disables injection.
type FaultConfig = fault.Config

// TransientFaultConfig parameterizes deterministic transient I/O fault
// injection (Options.Transient): per-processor seeded streams that can
// fail a suspend-image write or restart-image read, triggering bounded
// retry with exponential backoff in virtual time and, past the attempt
// cap, a kill-and-requeue. The zero value disables injection.
type TransientFaultConfig = fault.TransientConfig

// Simulate runs trace t under policy s. It panics on malformed input or
// an unfinishable run; use SimulateChecked to get an error instead.
func Simulate(t *Trace, s Scheduler, opt Options) *Result { return sched.Run(t, s, opt) }

// SimulateChecked runs trace t under policy s, returning an error for
// invalid traces, step-limit exhaustion, or a fault-injection outage
// that leaves a job permanently unfinishable (sched.ErrUnfinishable).
func SimulateChecked(t *Trace, s Scheduler, opt Options) (*Result, error) {
	return sched.RunChecked(t, s, opt)
}

// SimulateContext is SimulateChecked with run-lifecycle controls: ctx
// cancels the run at an event boundary, Options.Checkpoint saves
// resumable watermarks (a canceled-and-checkpointed run returns
// *sched.InterruptedError), and Options.Resume fast-forwards to a
// saved watermark and continues byte-identically to the uninterrupted
// run. See internal/sched's RunContext for the full contract.
func SimulateContext(ctx context.Context, t *Trace, s Scheduler, opt Options) (*Result, error) {
	return sched.RunContext(ctx, t, s, opt)
}

// Summarize computes the paper's metrics from a run.
func Summarize(r *Result, f Filter) *Summary { return metrics.FromResult(r, f) }

// NewScheduler builds a policy from a spec string (see the package
// comment for the grammar).
func NewScheduler(spec string) (Scheduler, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(strings.ToLower(spec)), ":")
	sf := 2.0
	if hasArg {
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return nil, fmt.Errorf("pjs: bad suspension factor %q in %q", arg, spec)
		}
		sf = v
	}
	switch name {
	case "fcfs":
		return fcfs.New(), nil
	case "conservative", "cons":
		return conservative.New(), nil
	case "ns", "easy", "aggressive":
		return depthbf.New(1), nil
	case "is":
		return is.New(), nil
	case "ss":
		if sf < 1 {
			return nil, fmt.Errorf("pjs: suspension factor %v must be ≥ 1", sf)
		}
		return ss.New(ss.Config{SF: sf}), nil
	case "tss":
		if sf < 1 {
			return nil, fmt.Errorf("pjs: suspension factor %v must be ≥ 1", sf)
		}
		return ss.New(ss.Config{SF: sf, Adaptive: &core.AdaptiveLimits{}}), nil
	case "ssmig", "ss-mig":
		if sf < 1 {
			return nil, fmt.Errorf("pjs: suspension factor %v must be ≥ 1", sf)
		}
		return ss.New(ss.Config{SF: sf, Migration: true}), nil
	case "gang":
		quantum := int64(0)
		if hasArg {
			q, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || q < 1 {
				return nil, fmt.Errorf("pjs: bad gang quantum %q in %q", arg, spec)
			}
			quantum = q
		}
		return gang.New(gang.Config{Quantum: quantum}), nil
	case "depth", "depthbf":
		depth := 1
		if hasArg {
			d, err := strconv.Atoi(arg)
			if err != nil || d < 1 {
				return nil, fmt.Errorf("pjs: bad reservation depth %q in %q", arg, spec)
			}
			depth = d
		}
		return depthbf.New(depth), nil
	case "spec", "specbf":
		factor := 0.0
		if hasArg {
			if sf <= 1 {
				return nil, fmt.Errorf("pjs: bad speculation factor %q in %q", arg, spec)
			}
			factor = sf
		}
		return speculative.New(speculative.Config{SpecFactor: factor}), nil
	}
	return nil, fmt.Errorf("pjs: unknown scheduler %q (want fcfs|conservative|ns|is|ss:SF|tss:SF|ssmig:SF|gang[:Q])", spec)
}

// SchedulerSpecs returns one canonical spec string per registered
// policy — every constructor branch NewScheduler accepts, in stable
// order. It is the scheduler registry used by the determinism
// regression suite (every policy is run twice over the same seeded
// trace and must produce byte-identical audit logs) and by tooling that
// wants to sweep all policies.
func SchedulerSpecs() []string {
	return []string{
		"fcfs",
		"conservative",
		"ns",
		"is",
		"ss:2",
		"tss:2",
		"ssmig:2",
		"gang",
		"spec",
		"depth:2",
	}
}

// NewSS returns a plain Selective Suspension scheduler.
func NewSS(sf float64) Scheduler { return ss.New(ss.Config{SF: sf}) }

// NewTSS returns a Tunable Selective Suspension scheduler whose
// per-category preemption-disable limits are 1.5 × the given average
// slowdowns (typically measured from an NS baseline run via
// Summary.SlowdownTable).
func NewTSS(sf float64, avgSlowdowns [16]float64) Scheduler {
	return ss.New(ss.Config{SF: sf, Limits: core.LimitsFromSlowdowns(avgSlowdowns)})
}

// Experiment harness re-exports.
type (
	// Experiment reproduces one paper table or figure.
	Experiment = experiment.Experiment
	// Runner memoizes experiment simulations.
	Runner = experiment.Runner
	// ExpConfig scales the experiment suite.
	ExpConfig = experiment.Config
)

// Experiments returns the full registry in paper order.
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID resolves a paper table/figure number like "fig7".
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// NewRunner builds an experiment runner.
func NewRunner(cfg ExpConfig) *Runner { return experiment.NewRunner(cfg) }
