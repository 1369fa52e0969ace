package sched

import "pjs/internal/job"

// Event is the one record of a scheduler action. Env.record builds it
// once per action and hands the same value to the audit log and to the
// Observer hook; ActTick heartbeats reach the observer only. The
// snapshot fields describe the machine state *after* the action took
// effect, so a sink that records the last event of each virtual instant
// sees the settled end-of-instant state.
//
// Events are passed by value and never retained by the engine; the
// Procs slice aliases the job's live processor set, so a sink that
// keeps it beyond the Observe call must copy it.
type Event struct {
	// Time is the virtual time of the action.
	Time int64
	// Action is the kind of action: any of the Action constants, ActTick
	// being the periodic scheduler tick.
	Action Action
	// Job is the subject of the action; nil for ActTick and the
	// processor-level actions (ActProcFail, ActProcRepair, ActIODegraded,
	// ActIORestored).
	Job *job.Job
	// Procs is the job's processor set at the action (shared, do not
	// retain); nil for arrivals and ticks. For a processor-level action
	// it holds the one affected processor.
	Procs []int
	// Busy is the number of processors owned by jobs after the action
	// (Suspending jobs still hold theirs).
	Busy int
	// Up is the number of in-service processors after the action — the
	// machine size minus failed processors. Always Procs-count without
	// fault injection.
	Up int
	// LostWork is the compute seconds discarded by this action: set for
	// failure-induced ActKill and for ActImageLost, zero otherwise
	// (including speculative-backfilling kills, which only ever discard
	// work the gamble knowingly risked).
	LostWork int64
	// Queued counts jobs that have arrived and hold no processors and
	// no suspended image (state Queued).
	Queued int
	// Running counts jobs in state Running.
	Running int
	// Suspended counts preempted jobs: state Suspending (image still
	// being written) plus state Suspended.
	Suspended int
}

// Observer receives engine events. Set one via Options.Observer; nil
// (the default) costs nothing — record builds no Event when neither an
// observer nor an audit log wants one, and performs no allocations then
// (asserted by TestNilObserverEmitZeroAllocs and
// BenchmarkRunObserverNil).
//
// Determinism contract: an Observer must be a pure sink in virtual
// time. It must not mutate jobs or scheduler state, read the wall
// clock, or influence the run in any way; two identical runs must then
// drive an identical event stream (the instrumented double-run
// regression in determinism_test.go asserts byte-identical sink
// output). Package obs provides the standard sinks — counters, a
// time-series sampler and a Perfetto trace exporter — plus a fan-out
// to compose them.
type Observer interface {
	Observe(ev Event)
}

// record is the one path every scheduler action takes. In order, it
// mixes the action into the watermark hash, builds one Event, appends
// it to the audit log if one is kept, and hands it to the observer if
// one is attached. lost is the compute seconds the action discarded
// (Event.LostWork). ActTick is neither hashed nor audited, so an
// unobserved tick builds no Event.
func (e *Env) record(act Action, j *job.Job, procs []int, lost int64) {
	audited := act != ActTick
	if audited {
		e.mixEntry(act, j, procs)
	}
	logged := audited && e.Audit != nil
	if !logged && e.obs == nil {
		return
	}
	ev := Event{
		Time:      e.engine.Now(),
		Action:    act,
		Job:       j,
		Procs:     procs,
		Busy:      e.Cluster.Busy(),
		Up:        e.Cluster.UpCount(),
		LostWork:  lost,
		Queued:    e.nQueued,
		Running:   e.nRunning,
		Suspended: e.nSuspended,
	}
	if logged {
		e.Audit.add(ev)
	}
	if e.obs != nil {
		e.obs.Observe(ev)
	}
}
