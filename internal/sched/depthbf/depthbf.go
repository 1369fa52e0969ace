// Package depthbf implements reservation-depth backfilling, the knob
// between the paper's two background policies: the first Depth jobs in
// arrival order hold start-time reservations, and any other queued job
// may start immediately iff doing so provably delays none of those
// reservations. Depth 1 is aggressive (EASY) backfilling, the paper's
// non-preemptive "NS" baseline (Section II-A-2); Depth → ∞ approaches
// conservative backfilling.
//
// The legality test is exact. Each pass builds one reserved profile —
// the running jobs plus the first Depth reservations at their anchors —
// and a candidate may start iff its processors stay free in that
// profile until its estimated end. Starting a job only lowers the
// profile, so no anchor can move earlier; the test admits exactly the
// candidates that leave every anchor where it is.
//
// The paper's own follow-up work ("Selective reservation strategies for
// backfill job scheduling", its reference [16]) studies exactly this
// spectrum; the ablation-depth experiment reproduces its flavour.
package depthbf

import (
	"strconv"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// Sched is the reservation-depth backfilling policy.
type Sched struct {
	env     *sched.Env
	depth   int
	queue   []*job.Job
	running []*job.Job
	prof    sched.Profile // reserved profile of the current pass
	anchors []int64       // reservation starts of the first depth queued jobs
}

// New returns a scheduler holding reservations for the first depth
// queued jobs (minimum 1).
func New(depth int) *Sched {
	if depth < 1 {
		depth = 1
	}
	return &Sched{depth: depth}
}

// Name implements sched.Scheduler. Depth 1 is the paper's "No
// Suspension" baseline.
func (s *Sched) Name() string {
	if s.depth == 1 {
		return "NS"
	}
	return "DepthBF(" + strconv.Itoa(s.depth) + ")"
}

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: purely event-driven.
func (s *Sched) TickInterval() int64 { return 0 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedule()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running = sched.Remove(s.running, j)
	s.schedule()
}

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: displaced jobs rejoin the queue
// at their submission-order position (restoring the arrival order the
// reservation depth is defined over) and the schedule is recomputed
// against the surviving machine.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running = sched.Remove(s.running, j)
		if !sched.Contains(s.queue, j) {
			s.queue = sched.InsertBySubmit(s.queue, j)
		}
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity may advance
// any reservation.
func (s *Sched) OnRepair(int) { s.schedule() }

func (s *Sched) start(j *job.Job) bool {
	if !s.env.StartFresh(j) {
		return false
	}
	s.queue = sched.Remove(s.queue, j)
	s.running = append(s.running, j)
	return true
}

// reserve rebuilds the reserved profile: the running jobs, then the
// first depth queued jobs in order, each anchored at its earliest fit.
func (s *Sched) reserve(now int64) {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseBackfillWindow, span)
	capacity := s.env.Cluster.UpCount()
	s.prof.ResetRunning(now, capacity, s.running)
	s.anchors = s.anchors[:0]
	for _, j := range s.queue[:min(s.depth, len(s.queue))] {
		if j.Procs > capacity {
			s.anchors = append(s.anchors, sched.FarFuture)
			continue
		}
		a := s.prof.FindStart(now, j.Procs, j.Estimate)
		s.prof.Sub(a, a+j.Estimate, j.Procs)
		s.anchors = append(s.anchors, a)
	}
}

// schedule starts every job the reservation discipline allows.
func (s *Sched) schedule() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	for s.startOne() {
	}
}

// startOne starts one job — a reserved job whose anchor is now, else the
// first other queued job that fits the reserved profile — and reports
// whether it did.
func (s *Sched) startOne() bool {
	now := s.env.Now()
	s.reserve(now)
	// Reserved jobs whose anchor is now start directly (in queue order;
	// the profile already accounts for the earlier ones).
	for i, a := range s.anchors {
		if a == now && s.queue[i].Procs <= s.env.Cluster.FreeUnclaimed() && s.start(s.queue[i]) {
			return true
		}
	}
	for _, c := range s.queue[len(s.anchors):] {
		if c.Procs <= s.env.Cluster.FreeUnclaimed() && s.prof.Fits(now, c.Procs, c.Estimate) && s.start(c) {
			return true
		}
	}
	return false
}

// Depth returns the configured reservation depth (for tests).
func (s *Sched) Depth() int { return s.depth }
