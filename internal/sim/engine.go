// Package sim implements the discrete-event simulation core: a
// deterministic event queue with a virtual clock, epoch-invalidated job
// events, and periodic scheduler ticks (the paper's one-minute preemption
// routine). The engine knows nothing about scheduling policy; a Handler
// (the scheduler driver) receives the events.
package sim

import (
	"context"
	"errors"
	"fmt"

	"pjs/internal/job"
	"pjs/internal/perf"
)

// Kind discriminates event types. The numeric order doubles as the
// processing priority for events with equal timestamps: completions free
// processors before arrivals and ticks observe them, and processor
// fail/repair transitions land after job releases at the same instant
// but before new arrivals see the machine.
type Kind int

const (
	// Completion fires when a running job finishes its compute.
	Completion Kind = iota
	// SuspendDone fires when a suspending job's memory image write
	// finishes and its processors are released.
	SuspendDone
	// ReadDone fires when a restarting job's memory image read finishes
	// (only scheduled when transient I/O faults are enabled; otherwise
	// restart reads are folded into the completion time).
	ReadDone
	// IORetry fires when a backed-off suspend-write or restart-read
	// attempt is due to be retried.
	IORetry
	// ProcFail fires when a processor fails (fault injection).
	ProcFail
	// ProcRepair fires when a failed processor returns to service.
	ProcRepair
	// Arrival fires when a job is submitted.
	Arrival
	// Tick fires periodically to run the scheduler's preemption routine.
	Tick
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Completion:
		return "completion"
	case SuspendDone:
		return "suspend-done"
	case ReadDone:
		return "read-done"
	case IORetry:
		return "io-retry"
	case ProcFail:
		return "proc-fail"
	case ProcRepair:
		return "proc-repair"
	case Arrival:
		return "arrival"
	case Tick:
		return "tick"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Run failure modes, returned (wrapped) by Run. Internal invariant
// violations — scheduling into the past, time moving backwards — still
// panic: they are simulator bugs, not run conditions.
var (
	// ErrDeadlock: the event queue drained with unfinished jobs left.
	ErrDeadlock = errors.New("sim: deadlock, no pending events but unfinished jobs remain")
	// ErrMaxSteps: the SetMaxSteps safety valve tripped (livelock?).
	ErrMaxSteps = errors.New("sim: step limit exceeded")
	// ErrCanceled: the SetContext context was done, and the run stopped
	// at an event boundary. The engine state is intact and consistent —
	// the run-lifecycle layer takes a final checkpoint from it.
	ErrCanceled = errors.New("sim: run canceled")
)

// Event is a scheduled occurrence. Job events carry the job's Epoch at
// scheduling time; if the job's epoch has moved on (it was preempted or
// resumed), the event is stale and silently dropped. ProcFail/ProcRepair
// events carry the processor index instead of a job.
type Event struct {
	Time  int64
	Kind  Kind
	Job   *job.Job
	Epoch int
	Proc  int   // processor index for ProcFail/ProcRepair
	seq   int64 // insertion order, final tie-break for determinism
}

// Handler receives simulation events in virtual-time order.
type Handler interface {
	// HandleArrival is called when j is submitted.
	HandleArrival(j *job.Job)
	// HandleCompletion is called when j's compute finishes. The handler
	// is responsible for releasing processors and marking the job done.
	HandleCompletion(j *job.Job)
	// HandleSuspendDone is called when j's suspension write completes.
	HandleSuspendDone(j *job.Job)
	// HandleReadDone is called when j's restart-image read completes
	// (transient-fault runs only).
	HandleReadDone(j *job.Job)
	// HandleIORetry is called when a backed-off I/O attempt for j is due.
	HandleIORetry(j *job.Job)
	// HandleProcFail is called when processor p fails.
	HandleProcFail(p int)
	// HandleProcRepair is called when processor p returns to service.
	HandleProcRepair(p int)
	// HandleTick is called every TickInterval seconds while the
	// simulation has unfinished jobs, if the interval is non-zero.
	HandleTick()
}

// Engine owns the virtual clock and the pending-event heap.
type Engine struct {
	now          int64
	seq          int64
	heap         eventHeap
	handler      Handler
	tickInterval int64
	nextTick     int64
	totalJobs    int
	finishedJobs int
	steps        int64
	maxSteps     int64
	abortErr     error
	ctx          context.Context
	stepHook     func(steps int64) error
	probe        *perf.Probe
}

// New returns an engine delivering events to h. tickInterval of 0
// disables ticks.
func New(h Handler, tickInterval int64) *Engine {
	return &Engine{handler: h, tickInterval: tickInterval, nextTick: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() int64 { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() int64 { return e.steps }

// SetMaxSteps installs a safety valve: Run returns ErrMaxSteps after n
// events. Zero (the default) means no limit. Used to catch livelocks.
func (e *Engine) SetMaxSteps(n int64) { e.maxSteps = n }

// ctxCheckMask throttles the cancellation poll: ctx.Err() is consulted
// every ctxCheckMask+1 events (and before the very first one), keeping
// the hot loop free of per-event synchronization while still stopping
// within a bounded number of events of cancellation.
const ctxCheckMask = 255

// SetContext installs a cancellation context: Run stops with a wrapped
// ErrCanceled at an event boundary shortly after ctx is done. The
// context error itself is also in the wrap chain, so callers can
// distinguish an operator interrupt (context.Canceled) from a watchdog
// deadline (context.DeadlineExceeded). A nil ctx — the default —
// never cancels. Cancellation affects only *when* the run stops, never
// what it computes: every event processed before the stop is identical
// to the uninterrupted run's.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// SetProbe attaches a performance probe timing each event dispatch
// (the handler invocation envelope). A nil probe — the default — keeps
// the loop on the zero-cost path: Begin/End on a nil *perf.Probe are
// allocation-free no-ops. The probe observes wall time only; it never
// reads or influences simulation state, so enabling it cannot change a
// run's outcome.
func (e *Engine) SetProbe(p *perf.Probe) { e.probe = p }

// SetStepHook installs fn, invoked after every processed event with
// the cumulative event count; a non-nil return stops Run with that
// error. The run-lifecycle layer (internal/sched) uses the hook for
// checkpoint watermarks and resume fast-forward — the hook must not
// mutate simulation state, or determinism is lost.
func (e *Engine) SetStepHook(fn func(steps int64) error) { e.stepHook = fn }

// Abort requests that Run stop with the given error after the current
// handler returns. Handlers call it when they detect an unrecoverable
// run condition (e.g. a job wider than the surviving machine under
// permanent failures). A nil err is ignored; the first abort wins.
func (e *Engine) Abort(err error) {
	if err != nil && e.abortErr == nil {
		e.abortErr = err
	}
}

// AddJob schedules the arrival of j. All jobs must be added before Run.
func (e *Engine) AddJob(j *job.Job) {
	e.totalJobs++
	e.push(&Event{Time: j.SubmitTime, Kind: Arrival, Job: j})
}

// ScheduleCompletion schedules j's completion at time at, bound to the
// job's current epoch. Preempting the job invalidates the event.
func (e *Engine) ScheduleCompletion(j *job.Job, at int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: completion for %v scheduled in the past (%d < %d)", j, at, e.now))
	}
	e.push(&Event{Time: at, Kind: Completion, Job: j, Epoch: j.Epoch})
}

// ScheduleSuspendDone schedules the end of j's suspension write at time
// at, bound to the job's current epoch.
func (e *Engine) ScheduleSuspendDone(j *job.Job, at int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: suspend-done for %v scheduled in the past (%d < %d)", j, at, e.now))
	}
	e.push(&Event{Time: at, Kind: SuspendDone, Job: j, Epoch: j.Epoch})
}

// ScheduleReadDone schedules the end of j's restart-image read at time
// at, bound to the job's current epoch. Preempting or killing the job
// invalidates the event.
func (e *Engine) ScheduleReadDone(j *job.Job, at int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: read-done for %v scheduled in the past (%d < %d)", j, at, e.now))
	}
	e.push(&Event{Time: at, Kind: ReadDone, Job: j, Epoch: j.Epoch})
}

// ScheduleIORetry schedules a backed-off I/O retry for j at time at,
// bound to the job's current epoch. Any epoch change (preemption, kill,
// processor failure) invalidates the pending retry.
func (e *Engine) ScheduleIORetry(j *job.Job, at int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: io-retry for %v scheduled in the past (%d < %d)", j, at, e.now))
	}
	e.push(&Event{Time: at, Kind: IORetry, Job: j, Epoch: j.Epoch})
}

// ScheduleProcFail schedules the failure of processor p at time at.
func (e *Engine) ScheduleProcFail(p int, at int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: proc-fail for %d scheduled in the past (%d < %d)", p, at, e.now))
	}
	e.push(&Event{Time: at, Kind: ProcFail, Proc: p})
}

// ScheduleProcRepair schedules the repair of processor p at time at.
func (e *Engine) ScheduleProcRepair(p int, at int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: proc-repair for %d scheduled in the past (%d < %d)", p, at, e.now))
	}
	e.push(&Event{Time: at, Kind: ProcRepair, Proc: p})
}

// JobFinished must be called by the handler once per job, from
// HandleCompletion; Run returns when every added job has finished.
func (e *Engine) JobFinished() { e.finishedJobs++ }

func (e *Engine) push(ev *Event) {
	ev.seq = e.seq
	e.seq++
	e.heap.push(ev)
}

// stale reports whether a job-bound event no longer reflects the job's
// state and must be dropped.
func stale(ev *Event) bool {
	switch ev.Kind {
	case Completion:
		return ev.Job.Epoch != ev.Epoch || ev.Job.State != job.Running
	case SuspendDone:
		return ev.Job.Epoch != ev.Epoch || ev.Job.State != job.Suspending
	case ReadDone:
		return ev.Job.Epoch != ev.Epoch || ev.Job.State != job.Running
	case IORetry:
		return ev.Job.Epoch != ev.Epoch ||
			(ev.Job.State != job.Running && ev.Job.State != job.Suspending)
	case Arrival, Tick, ProcFail, ProcRepair:
		// Not job-bound: arrivals are externally scheduled, ticks and
		// processor events carry no job, so none can go stale.
		return false
	}
	return false
}

// Run processes events until all jobs have finished and returns the
// finish time of the last job (the makespan end). It fails with a
// wrapped ErrDeadlock when the queue drains early, a wrapped
// ErrMaxSteps when the safety valve trips, a wrapped ErrCanceled when
// the SetContext context is done, the step hook's error, or the
// handler's Abort error; on error the returned time is the time
// reached so far.
func (e *Engine) Run() (int64, error) {
	if e.tickInterval > 0 && e.heap.len() > 0 {
		e.nextTick = e.heap.min().Time + e.tickInterval
		e.push(&Event{Time: e.nextTick, Kind: Tick})
	}
	for e.finishedJobs < e.totalJobs {
		if e.ctx != nil && e.steps&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return e.now, fmt.Errorf("%w after %d events at t=%d: %w", ErrCanceled, e.steps, e.now, err)
			}
		}
		if e.heap.len() == 0 {
			return e.now, fmt.Errorf("%w at t=%d with %d/%d jobs finished",
				ErrDeadlock, e.now, e.finishedJobs, e.totalJobs)
		}
		ev := e.heap.pop()
		if ev.Time < e.now {
			panic(fmt.Sprintf("sim: time moved backwards %d -> %d", e.now, ev.Time))
		}
		e.now = ev.Time
		e.steps++
		if e.maxSteps > 0 && e.steps > e.maxSteps {
			return e.now, fmt.Errorf("%w: %d steps at t=%d (livelock?)",
				ErrMaxSteps, e.maxSteps, e.now)
		}
		span := e.probe.Begin()
		switch ev.Kind {
		case Arrival:
			e.handler.HandleArrival(ev.Job)
		case Completion:
			if !stale(ev) {
				e.handler.HandleCompletion(ev.Job)
			}
		case SuspendDone:
			if !stale(ev) {
				e.handler.HandleSuspendDone(ev.Job)
			}
		case ReadDone:
			if !stale(ev) {
				e.handler.HandleReadDone(ev.Job)
			}
		case IORetry:
			if !stale(ev) {
				e.handler.HandleIORetry(ev.Job)
			}
		case ProcFail:
			e.handler.HandleProcFail(ev.Proc)
		case ProcRepair:
			e.handler.HandleProcRepair(ev.Proc)
		case Tick:
			if e.finishedJobs < e.totalJobs {
				e.handler.HandleTick()
				// Re-arm the popped tick instead of allocating one per
				// tick; push gives it a fresh seq, as a new event would
				// get.
				e.nextTick = e.now + e.tickInterval
				ev.Time = e.nextTick
				e.push(ev)
			}
		}
		e.probe.End(perf.PhaseEventDispatch, span)
		if e.abortErr != nil {
			return e.now, e.abortErr
		}
		if e.stepHook != nil {
			if err := e.stepHook(e.steps); err != nil {
				return e.now, err
			}
		}
	}
	return e.now, nil
}
