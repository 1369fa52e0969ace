// Package conservative implements conservative backfilling
// (Section II-A-1): every job receives a start-time reservation (its
// "anchor point") when it is submitted, and a job may backfill only if it
// delays no previously queued job. When a running job terminates earlier
// than its estimate, the schedule is compressed: reservations are
// released in order of increasing start time and each job is re-anchored
// at the earliest hole that now fits it.
package conservative

import (
	"fmt"
	"sort"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// reservation is a queued job's guaranteed start.
type reservation struct {
	j     *job.Job
	start int64
}

// Sched is the conservative-backfilling policy.
type Sched struct {
	env     *sched.Env
	running []*job.Job
	resvs   []reservation // sorted by start, then queue order
	prof    sched.Profile // scratch timeline, rebuilt by each hook
}

// New returns a conservative backfilling scheduler.
func New() *Sched { return &Sched{} }

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "Conservative" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: purely event-driven.
func (s *Sched) TickInterval() int64 { return 0 }

// OnArrival implements sched.Scheduler: anchor the new job against the
// current usage profile (running jobs + all existing reservations).
func (s *Sched) OnArrival(j *job.Job) {
	now := s.env.Now()
	if j.Procs > s.env.Cluster.UpCount() {
		s.insertResv(reservation{j: j, start: sched.FarFuture})
		return
	}
	span := s.env.Probe().Begin()
	p := &s.prof
	p.ResetRunning(now, s.env.Cluster.UpCount(), s.running)
	for _, r := range s.resvs {
		if r.start >= sched.FarFuture {
			continue // wider than the surviving machine, not in the profile
		}
		p.Sub(r.start, r.start+r.j.Estimate, r.j.Procs)
	}
	anchor := p.FindStart(now, j.Procs, j.Estimate)
	s.env.Probe().End(perf.PhaseBackfillWindow, span)
	if anchor == now {
		s.mustStart(j)
		return
	}
	s.insertResv(reservation{j: j, start: anchor})
}

// OnCompletion implements sched.Scheduler: compress the schedule. All
// reservations are released in order of increasing guaranteed start and
// re-anchored against the shrunken profile; in the worst case each job
// is reinserted where it was.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running = sched.Remove(s.running, j)
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	now := s.env.Now()
	old := s.resvs
	s.resvs = nil
	capacity := s.env.Cluster.UpCount()
	p := &s.prof
	p.ResetRunning(now, capacity, s.running)
	for _, r := range old {
		if r.j.Procs > capacity {
			s.insertResv(reservation{j: r.j, start: sched.FarFuture})
			continue
		}
		anchor := p.FindStart(now, r.j.Procs, r.j.Estimate)
		if anchor == now && s.env.Cluster.FreeUnclaimed() >= r.j.Procs {
			s.mustStart(r.j)
		} else {
			s.insertResv(reservation{j: r.j, start: anchor})
		}
		p.Sub(anchor, anchor+r.j.Estimate, r.j.Procs)
	}
}

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {}

// OnFailure implements sched.Scheduler: displaced jobs lose their run
// and every guarantee is recomputed from scratch against the surviving
// machine — the capacity loss may push any anchor later, so nothing
// short of a full rebuild keeps the profile sound.
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running = sched.Remove(s.running, j)
	}
	s.rebuild(requeued)
}

// OnRepair implements sched.Scheduler: the recovered processor may pull
// every anchor earlier (and re-admit jobs parked at sched.FarFuture), so
// the schedule is rebuilt just like after a failure.
func (s *Sched) OnRepair(int) { s.rebuild(nil) }

// rebuild re-anchors every queued job — existing reservations plus any
// newly displaced jobs — in (submit, id) order against the surviving
// machine, starting those whose anchor is now.
func (s *Sched) rebuild(extra []*job.Job) {
	span := s.env.Probe().Begin()
	defer s.env.Probe().End(perf.PhaseQueueScan, span)
	now := s.env.Now()
	jobs := make([]*job.Job, 0, len(s.resvs)+len(extra))
	for _, r := range s.resvs {
		jobs = append(jobs, r.j)
	}
	for _, j := range extra {
		if !sched.Contains(jobs, j) {
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].SubmitTime != jobs[k].SubmitTime {
			return jobs[i].SubmitTime < jobs[k].SubmitTime
		}
		return jobs[i].ID < jobs[k].ID
	})
	s.resvs = nil
	capacity := s.env.Cluster.UpCount()
	p := &s.prof
	p.ResetRunning(now, capacity, s.running)
	for _, j := range jobs {
		if j.Procs > capacity {
			s.insertResv(reservation{j: j, start: sched.FarFuture})
			continue
		}
		anchor := p.FindStart(now, j.Procs, j.Estimate)
		if anchor == now && s.env.Cluster.FreeUnclaimed() >= j.Procs {
			s.mustStart(j)
		} else {
			s.insertResv(reservation{j: j, start: anchor})
		}
		p.Sub(anchor, anchor+j.Estimate, j.Procs)
	}
}

// mustStart launches a job whose anchor is now; the profile guarantees
// processors are free, so failure is a bug.
func (s *Sched) mustStart(j *job.Job) {
	if !s.env.StartFresh(j) {
		panic(fmt.Sprintf("conservative: anchored job %v does not fit", j))
	}
	s.running = append(s.running, j)
}

// insertResv keeps reservations sorted by start time (stable in queue
// order for equal starts).
func (s *Sched) insertResv(r reservation) {
	i := sort.Search(len(s.resvs), func(i int) bool { return s.resvs[i].start > r.start })
	s.resvs = append(s.resvs, reservation{})
	copy(s.resvs[i+1:], s.resvs[i:])
	s.resvs[i] = r
}

// Reservations returns the current number of queued reservations (for
// tests).
func (s *Sched) Reservations() int { return len(s.resvs) }
