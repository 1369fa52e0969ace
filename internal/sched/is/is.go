// Package is implements the Immediate Service (IS) preemptive policy of
// Chiang and Vernon, the comparison scheme of Section II-C: every
// arriving job is given an immediate timeslice of ten minutes, suspending
// one or more running jobs if needed; victims are the running jobs with
// the lowest instantaneous-xfactor,
//
//	(wait time + total accumulated run time) / total accumulated run time.
//
// Jobs inside their initial timeslice are protected from suspension.
// Because IS was designed for shared-memory systems, the original has no
// placement constraint; in this paper's cluster setting suspended jobs
// keep the local-restart requirement (same processor set), which is what
// makes IS collapse for long and wide jobs in the evaluation.
package is

import (
	"sort"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// SliceSeconds is the immediate-service timeslice: 10 minutes.
const SliceSeconds = 600

// Sched is the IS policy.
type Sched struct {
	env      *sched.Env
	queue    []*job.Job // idle: fresh and suspended, excluding pending
	running  []*job.Job // running or committed-to-run (pending)
	sliceEnd map[int]int64
}

// New returns an Immediate Service scheduler.
func New() *Sched { return &Sched{} }

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "IS" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) {
	s.env = env
	s.sliceEnd = make(map[int]int64)
}

// TickInterval implements sched.Scheduler: a periodic retry lets queued
// arrivals claim their slice once protections expire.
func (s *Sched) TickInterval() int64 { return 60 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedule()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running = sched.Remove(s.running, j)
	delete(s.sliceEnd, j.ID)
	s.schedule()
}

// OnSuspendDone implements sched.Scheduler: the victim is idle again.
func (s *Sched) OnSuspendDone(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedule()
}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() { s.schedule() }

// OnFailure implements sched.Scheduler: displaced jobs leave the running
// list (their protected slice, if any, is forfeit) and rejoin the idle
// queue; schedule() then serves them by instantaneous xfactor like any
// other idle job, resuming the still-Suspended ones and restarting the
// rest from scratch.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running = sched.Remove(s.running, j)
		delete(s.sliceEnd, j.ID)
		if !sched.Contains(s.queue, j) {
			s.queue = append(s.queue, j)
		}
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity is offered to
// the idle queue immediately.
func (s *Sched) OnRepair(int) { s.schedule() }

// protected reports whether v is inside its initial timeslice.
func (s *Sched) protected(v *job.Job, now int64) bool {
	end, ok := s.sliceEnd[v.ID]
	return ok && now < end
}

// markStarted records bookkeeping for a job the policy just launched.
// Only a job's very first start earns the protected timeslice; resumed
// jobs run unprotected.
func (s *Sched) markStarted(j *job.Job, now int64) {
	s.running = append(s.running, j)
	if j.Suspensions == 0 && (j.FirstStart == -1 || j.FirstStart == now) {
		s.sliceEnd[j.ID] = now + SliceSeconds
	}
}

// schedule serves the idle queue in descending instantaneous-xfactor
// order: resume suspended jobs whose set is free, start fresh jobs that
// fit, and give never-run jobs their immediate slice by suspending the
// lowest-ixf unprotected running jobs.
//
// Order matters only once some job acts: a failed attempt changes no
// state, so a pass in which no idle job would act on the current state
// does nothing in any order. wouldAct is that order-free dry run, and
// only a pass that will act pays for the copy and the sort.
func (s *Sched) schedule() {
	now := s.env.Now()
	if !s.wouldAct(now) {
		return
	}
	idle := append([]*job.Job(nil), s.queue...)
	sort.SliceStable(idle, func(i, k int) bool {
		xi, xk := idle[i].InstantaneousXFactor(now), idle[k].InstantaneousXFactor(now)
		if xi != xk {
			return xi > xk
		}
		return idle[i].ID < idle[k].ID
	})
	for _, j := range idle {
		switch {
		case j.State == job.Suspended:
			if s.env.Resume(j) {
				s.queue = sched.Remove(s.queue, j)
				s.markStarted(j, now)
			}
		case s.env.StartFresh(j):
			s.queue = sched.Remove(s.queue, j)
			s.markStarted(j, now)
		case j.FirstStart < 0:
			// Immediate service: a job that has never run may obtain
			// its slice by suspending low-ixf unprotected jobs.
			s.tryImmediate(j, now)
		}
	}
}

// wouldAct reports whether any idle job's attempt in schedule would
// act against the current state: a resume onto a free remembered set,
// a fresh start on free processors, or an immediate-service preemption
// whose free plus suspendable processors cover the request.
func (s *Sched) wouldAct(now int64) bool {
	free := s.env.Cluster.FreeUnclaimed()
	reach := -1 // free plus suspendable processors, computed on demand
	for _, j := range s.queue {
		switch {
		case j.State == job.Suspended:
			if s.env.CanResume(j) {
				return true
			}
		case s.env.CanStartFresh(j):
			return true
		case j.FirstStart < 0:
			if reach < 0 {
				reach = free
				for _, r := range s.running {
					if s.suspendable(r, now) {
						reach += r.Procs
					}
				}
			}
			if reach >= j.Procs {
				return true
			}
		}
	}
	return false
}

// suspendable reports whether running job r may be suspended for an
// immediate slice: it is running, past its own protected slice, and not
// on I/O-degraded processors — its suspension write would likely fail,
// so under rising transient-fault rates IS degrades toward serving only
// what fits the free processors.
func (s *Sched) suspendable(r *job.Job, now int64) bool {
	return r.State == job.Running && !s.protected(r, now) && s.env.SetIOHealthy(r.ProcSet)
}

// tryImmediate attempts to start never-run job j by preemption.
func (s *Sched) tryImmediate(j *job.Job, now int64) {
	free := s.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return // StartFresh path already handled it
	}
	// Victims in ascending instantaneous-xfactor among suspendable
	// running jobs; IS has no width restriction.
	var cands []*job.Job
	for _, r := range s.running {
		if s.suspendable(r, now) {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(i, k int) bool {
		xi, xk := cands[i].InstantaneousXFactor(now), cands[k].InstantaneousXFactor(now)
		if xi != xk {
			return xi < xk
		}
		return cands[i].ID < cands[k].ID
	})
	var victims []*job.Job
	avail := free
	for _, v := range cands {
		if avail >= j.Procs {
			break
		}
		victims = append(victims, v)
		avail += v.Procs
	}
	if avail < j.Procs {
		return // not enough suspendable capacity; retry on later events
	}
	claim := s.env.Cluster.ListFreeUnclaimed(j.Procs)
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
		s.running = sched.Remove(s.running, v)
		delete(s.sliceEnd, v.ID)
	}
	s.queue = sched.Remove(s.queue, j)
	s.env.PreemptAndStart(j, victims, claim)
	s.markStarted(j, now)
}
