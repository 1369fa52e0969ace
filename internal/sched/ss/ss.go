// Package ss implements the paper's Selective Suspension (SS) scheduler
// and its Tunable variant (TSS), wiring the core preemption policy into
// the event loop (Section IV):
//
//   - Idle jobs are served in descending xfactor order without
//     reservation guarantees; freedom from starvation comes from the
//     unbounded growth of a waiting job's xfactor (Section IV-B).
//   - Every minute the preemption routine runs (the paper's pseudocode):
//     fresh idle jobs collect enough low-priority victims, subject to the
//     suspension factor and the half-width fairness rule; previously
//     suspended jobs reacquire exactly their remembered processor set,
//     preempting its current holders if the SF condition allows.
//   - TSS additionally disables preemption of any job whose xfactor
//     exceeds 1.5× its category's average slowdown (Section IV-E),
//     bounding worst-case slowdowns.
package ss

import (
	"fmt"
	"slices"

	"pjs/internal/core"
	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// Config parameterizes an SS/TSS scheduler.
type Config struct {
	// SF is the suspension factor (paper: 1.5, 2, 5).
	SF float64
	// Limits enables TSS with the given limit source; nil is plain SS.
	Limits core.LimitSource
	// Adaptive, if non-nil, is an online limit source that the
	// scheduler feeds with completed-job slowdowns (single-pass TSS).
	// When set it is also used as Limits.
	Adaptive *core.AdaptiveLimits
	// DisableHalfWidthRule turns off the wide-job fairness rule (for
	// ablation).
	DisableHalfWidthRule bool
	// Migration switches to the *migratable* preemption model of
	// Parsons & Sevcik: a suspended job may restart on any free
	// processors instead of exactly its old set. An ablation of the
	// paper's local-restart constraint — not available on the paper's
	// clusters, where process migration is not feasible.
	Migration bool
	// MaxSuspensions caps per-job suspensions (0 = unlimited), the
	// related-work mechanism of Chiang et al. ("at most once") that the
	// paper contrasts with its suspension-factor rate control.
	MaxSuspensions int
	// TickSeconds is the preemption-routine period; 0 means the
	// paper's 60 s.
	TickSeconds int64
}

// Sched is the SS/TSS policy.
type Sched struct {
	env     *sched.Env
	pol     core.Policy
	cfg     Config
	queue   []*job.Job // idle (fresh + suspended), excluding pending
	running []*job.Job // running or committed (pending starts)
	healthy []*job.Job // victimCandidates' reused result under I/O faults
}

// New returns an SS or TSS scheduler for the given configuration.
func New(cfg Config) *Sched {
	if cfg.Adaptive != nil {
		cfg.Limits = cfg.Adaptive
	}
	s := &Sched{
		cfg: cfg,
		pol: core.Policy{
			SF:                   cfg.SF,
			DisableHalfWidthRule: cfg.DisableHalfWidthRule,
			Limits:               cfg.Limits,
			MaxVictimSuspensions: cfg.MaxSuspensions,
		},
	}
	if err := s.pol.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Name implements sched.Scheduler, e.g. "SS(SF=2)" or "TSS(SF=2)".
func (s *Sched) Name() string {
	kind := "SS"
	if s.cfg.Limits != nil {
		kind = "TSS"
	}
	if s.cfg.Migration {
		kind += "-mig"
	}
	return fmt.Sprintf("%s(SF=%g)", kind, s.cfg.SF)
}

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: the preemption routine runs
// every minute (Section IV-B).
func (s *Sched) TickInterval() int64 {
	if s.cfg.TickSeconds > 0 {
		return s.cfg.TickSeconds
	}
	return 60
}

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedulePass()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running = sched.Remove(s.running, j)
	if s.cfg.Adaptive != nil {
		s.cfg.Adaptive.Observe(j.EstimateCategory(), boundedSlowdown(j))
	}
	s.schedulePass()
}

// OnSuspendDone implements sched.Scheduler: the victim rejoins the idle
// queue and will reenter via the preemption routine or a free set.
func (s *Sched) OnSuspendDone(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedulePass()
}

// OnTick implements sched.Scheduler: the periodic preemption routine.
func (s *Sched) OnTick() {
	s.preemptionPass()
	s.schedulePass()
}

// OnFailure implements sched.Scheduler: displaced jobs (killed victims,
// stranded images, aborted pending starts) rejoin the idle queue and
// compete again by xfactor; their restarted wait pushes the xfactor up,
// so SS naturally re-serves the most-hurt jobs first.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running = sched.Remove(s.running, j)
		if !sched.Contains(s.queue, j) {
			s.queue = append(s.queue, j)
		}
	}
	s.schedulePass()
}

// OnRepair implements sched.Scheduler: recovered capacity is offered to
// the idle queue immediately; the next tick's preemption routine sees
// it too.
func (s *Sched) OnRepair(int) { s.schedulePass() }

// schedulePass is the reservation-free backfilling step: idle jobs are
// scanned in descending xfactor and started whenever they fit without
// preemption — fresh jobs on any free processors, suspended jobs on
// their remembered set.
//
// Order matters only once some job starts: a failed start changes no
// state, so a pass in which no idle job fits the current state starts
// nothing in any order. canStart is that order-free dry run, and only a
// pass that will act pays for the copy and the sort.
func (s *Sched) schedulePass() {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	if !slices.ContainsFunc(s.queue, s.canStart) {
		return
	}
	now := s.env.Now()
	idle := append([]*job.Job(nil), s.queue...)
	sched.SortByXFactor(idle, now)
	for _, j := range idle {
		started := false
		switch {
		case j.State != job.Suspended:
			started = s.env.StartFresh(j)
		case s.cfg.Migration:
			started = s.env.ResumeAnywhere(j)
		default:
			started = s.env.Resume(j)
		}
		if started {
			s.queue = sched.Remove(s.queue, j)
			s.running = append(s.running, j)
		}
	}
}

// canStart reports whether idle job j would start in schedulePass
// against the current state, asking the environment the same question
// its start and resume calls ask.
func (s *Sched) canStart(j *job.Job) bool {
	switch {
	case j.State != job.Suspended:
		return s.env.CanStartFresh(j)
	case s.cfg.Migration:
		return s.env.CanResumeAnywhere(j)
	default:
		return s.env.CanResume(j)
	}
}

// preemptionPass is the paper's periodic preemption routine: idle jobs
// in descending suspension priority each attempt to obtain processors by
// suspending sufficiently lower-priority running jobs. As in
// schedulePass, the pass sorts only when the order-free dry run
// (wouldPreempt) finds a job whose attempt commits against the current
// state; otherwise every attempt fails in any order.
func (s *Sched) preemptionPass() {
	now := s.env.Now()
	if !s.wouldPreempt(now) {
		return
	}
	idle := append([]*job.Job(nil), s.queue...)
	sched.SortByXFactor(idle, now)
	for _, j := range idle {
		if j.State == job.Suspended && !s.cfg.Migration {
			s.tryReentry(j, now)
		} else {
			// Under migration a suspended job competes for any
			// processors, exactly like a fresh one (the half-width
			// rule applies again — it exists to protect wide jobs and
			// the exact-set justification for waiving it is gone).
			s.tryPreempt(j, now)
		}
	}
}

// wouldPreempt reports whether tryReentry or tryPreempt would commit a
// preemption for any idle job against the current state, using the
// same feasibility tests (Policy.ReentryPreempts over reentryStatus,
// Policy.Coverable over victimCandidates) without sorting.
func (s *Sched) wouldPreempt(now int64) bool {
	free := s.env.Cluster.FreeUnclaimed()
	cands := s.victimCandidates()
	for _, j := range s.queue {
		if j.State == job.Suspended && !s.cfg.Migration {
			classify := func(proc int) (core.ReentryBlocked, *job.Job) { return s.reentryStatus(j, proc) }
			if s.pol.ReentryPreempts(now, j, classify) {
				return true
			}
			continue
		}
		if free >= j.Procs {
			continue // tryPreempt leaves it to schedulePass
		}
		if s.pol.Coverable(now, j, cands, free) {
			return true
		}
	}
	return false
}

// victimCandidates returns the running jobs fresh preemption may
// suspend. Degraded-mode preemption: jobs on processors over the
// transient-I/O failure threshold are not victim candidates — their
// image write would likely fail. As failure rates rise the candidate
// pool empties and SS degrades toward pure backfilling. The result is
// valid until the next call.
func (s *Sched) victimCandidates() []*job.Job {
	if !s.env.IOHealthActive() {
		return s.running
	}
	s.healthy = s.healthy[:0]
	for _, r := range s.running {
		if s.env.SetIOHealthy(r.ProcSet) {
			s.healthy = append(s.healthy, r)
		}
	}
	return s.healthy
}

// tryPreempt attempts to start fresh idle job j by suspending victims
// (the pseudocode's suspend_jobs_1 path).
func (s *Sched) tryPreempt(j *job.Job, now int64) {
	free := s.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return // schedulePass will start it without suspending anyone
	}
	span := s.env.Probe().Begin()
	victims, ok := s.pol.SelectVictims(now, j, s.victimCandidates(), free)
	s.env.Probe().End(perf.PhaseVictimSelect, span)
	if !ok || len(victims) == 0 {
		return
	}
	claim := s.env.Cluster.ListFreeUnclaimed(j.Procs)
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
	}
	s.commit(j, victims, claim)
}

// reentryStatus classifies processor proc of suspended job j's
// remembered set for reentry (suspend_jobs_2) and, for a preemptible
// processor, returns its holder.
func (s *Sched) reentryStatus(j *job.Job, proc int) (core.ReentryBlocked, *job.Job) {
	cl := s.env.Cluster
	owner := cl.Owner(proc)
	if owner == -1 {
		if c := cl.Claimant(proc); c != -1 && c != j.ID {
			return core.ReentryHard, nil // reserved for a pending start
		}
		return core.ReentryFree, nil
	}
	holder := s.env.JobByID(owner)
	if holder.State != job.Running {
		return core.ReentryHard, nil // already suspending for someone else
	}
	if !s.env.SetIOHealthy(holder.ProcSet) {
		// The holder sits on I/O-degraded processors: suspending it
		// would likely fail the image write, so the set is treated as
		// hard-blocked until the health window clears.
		return core.ReentryHard, nil
	}
	return core.ReentryPreemptible, holder
}

// tryReentry attempts to restart suspended job j on its remembered set
// by suspending the set's current holders (suspend_jobs_2).
func (s *Sched) tryReentry(j *job.Job, now int64) {
	classify := func(proc int) (core.ReentryBlocked, *job.Job) { return s.reentryStatus(j, proc) }
	span := s.env.Probe().Begin()
	victims, ok := s.pol.SelectReentryVictims(now, j, classify)
	s.env.Probe().End(perf.PhaseVictimSelect, span)
	if !ok || len(victims) == 0 {
		return // fully free sets are handled by schedulePass
	}
	s.commit(j, victims, j.ProcSet)
}

// commit removes j from the idle queue, books the victims out of the
// running list and hands the preemption to the environment.
func (s *Sched) commit(j *job.Job, victims []*job.Job, claim []int) {
	for _, v := range victims {
		s.running = sched.Remove(s.running, v)
	}
	s.queue = sched.Remove(s.queue, j)
	s.running = append(s.running, j)
	s.env.PreemptAndStart(j, victims, claim)
}

// boundedSlowdown is the Eq. 1 metric with the 10 s threshold, computed
// on a finished job (duplicated from package metrics to keep the
// scheduler free of a metrics dependency).
func boundedSlowdown(j *job.Job) float64 {
	run := j.RunTime
	if run < 10 {
		run = 10
	}
	sd := float64(j.Turnaround()) / float64(run)
	if sd < 1 {
		sd = 1
	}
	return sd
}
