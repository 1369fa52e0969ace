// Package obs is the deterministic observability layer of the
// simulation engine: composable sinks for the sched.Observer hook on
// sched.Options. Three consumers ship here —
//
//   - Counters / Registry: per-scheduler and per-job-category event
//     counts (starts, resumes, suspensions, kills, backfill leapfrogs,
//     preemption-chain depth, modeled suspended-image bytes);
//   - Sampler: a time series of utilization, queue depth, running and
//     suspended job counts, and max pending xfactor, one row per
//     virtual instant;
//   - TraceBuilder: a Chrome trace-event / Perfetto JSON exporter that
//     renders per-processor tracks of job segments so a whole run
//     opens in ui.perfetto.dev (ValidateTrace checks the output
//     against the subset of the format the exporter emits).
//
// Every sink obeys the Observer determinism contract: virtual time
// only, append-only state, no influence on the run. Two identical runs
// therefore produce byte-identical trace JSON, time-series CSV and
// counter dumps — the instrumented double-run regression in the
// repository root asserts exactly that. Sink writers propagate write
// errors (the pjslint errwrite check covers this package): a short
// write must surface, not silently truncate an exported trace.
package obs

import (
	"pjs/internal/job"
	"pjs/internal/sched"
)

// FanOut broadcasts each event to every sink in order. Compose the
// sinks a run needs and hand the fan-out to sched.Options.Observer.
type FanOut struct {
	sinks []sched.Observer
}

// NewFanOut builds a fan-out over the given sinks, dropping nils so
// callers can pass optional sinks unconditionally.
func NewFanOut(sinks ...sched.Observer) *FanOut {
	f := &FanOut{}
	for _, s := range sinks {
		if s != nil {
			f.sinks = append(f.sinks, s)
		}
	}
	return f
}

// Observe implements sched.Observer.
func (f *FanOut) Observe(ev sched.Event) {
	for _, s := range f.sinks {
		s.Observe(ev)
	}
}

// queue is the set of arrived jobs waiting for processors, as the event
// stream reveals it: ActArrive, ActKill and ActImageLost put a job in,
// ActStart takes it out. At the last event of each virtual instant it
// holds exactly the jobs the engine has in state Queued. Counters keeps
// one to detect backfills, Sampler one for the max queued xfactor.
type queue []*job.Job

// observe applies ev to the set. For an ActStart it reports whether a
// job submitted strictly earlier (ties broken by ID, the engine's FCFS
// order) is still waiting — whether the start was a backfill.
func (q *queue) observe(ev sched.Event) (backfill bool) {
	switch a, j := ev.Action, ev.Job; {
	case a == sched.ActArrive || a == sched.ActKill || a == sched.ActImageLost:
		*q = append(*q, j)
	case a == sched.ActStart:
		kept := (*q)[:0]
		for _, w := range *q {
			if w.ID == j.ID {
				continue
			}
			if w.SubmitTime < j.SubmitTime || (w.SubmitTime == j.SubmitTime && w.ID < j.ID) {
				backfill = true
			}
			kept = append(kept, w)
		}
		*q = kept
	}
	return backfill
}

// maxXFactor returns the largest expansion factor (Eq. 2) over the set
// at time now, or 0 when it is empty.
func (q queue) maxXFactor(now int64) float64 {
	m := 0.0
	for _, j := range q {
		m = max(m, j.XFactor(now))
	}
	return m
}
