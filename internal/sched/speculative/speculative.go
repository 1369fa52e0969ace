// Package speculative implements speculative backfilling in the style of
// Perkovic & Keleher (the paper's reference [29], discussed at length in
// its Section V): on top of aggressive (EASY) backfilling, a queued job
// may be started in a free hole *shorter than its estimate*, gambling
// that the estimate is badly inflated and the job will finish early. If
// the gamble fails — the job is still running when the hole closes — the
// job is killed and requeued, losing all its work (no checkpointing).
//
// The Section V discussion predicts exactly what the ablation shows:
// jobs that really are short (aborting or badly over-estimated) see
// their slowdown collapse because they no longer wait for a
// full-estimate window, while honest long jobs are unaffected as long
// as the speculation gate is conservative.
package speculative

import (
	"pjs/internal/job"
	"pjs/internal/sched"
)

// Config parameterizes speculation.
type Config struct {
	// SpecFactor gates which jobs may gamble: a job is started
	// speculatively in a hole of length H only if estimate ≤
	// SpecFactor × H. Zero means the default of 5.
	SpecFactor float64
	// MaxKills is how many failed gambles a job may suffer before it
	// is only scheduled conventionally. Zero means the default of 2.
	MaxKills int
}

// Sched is the speculative-backfilling policy.
type Sched struct {
	env      *sched.Env
	cfg      Config
	queue    []*job.Job
	running  []*job.Job
	deadline map[int]int64 // jobID → must-vacate time for spec runs
	prof     sched.Profile // scratch timeline for the head's shadow
}

// New returns a speculative backfilling scheduler.
func New(cfg Config) *Sched {
	if cfg.SpecFactor == 0 {
		cfg.SpecFactor = 5
	}
	if cfg.MaxKills == 0 {
		cfg.MaxKills = 2
	}
	return &Sched{cfg: cfg, deadline: make(map[int]int64)}
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "SpecBF" }

// Init implements sched.Scheduler.
func (s *Sched) Init(env *sched.Env) { s.env = env }

// TickInterval implements sched.Scheduler: deadlines are enforced at
// minute granularity, like the paper's preemption routine.
func (s *Sched) TickInterval() int64 { return 60 }

// OnArrival implements sched.Scheduler.
func (s *Sched) OnArrival(j *job.Job) {
	s.queue = append(s.queue, j)
	s.schedule()
}

// OnCompletion implements sched.Scheduler.
func (s *Sched) OnCompletion(j *job.Job) {
	s.running = sched.Remove(s.running, j)
	delete(s.deadline, j.ID)
	s.schedule()
}

// OnSuspendDone implements sched.Scheduler; never suspends.
func (s *Sched) OnSuspendDone(*job.Job) {}

// OnTick implements sched.Scheduler.
func (s *Sched) OnTick() {
	s.enforceDeadlines()
	s.schedule()
}

// OnFailure implements sched.Scheduler: a failure-killed job rejoins
// the queue at its submission-order position; any speculative deadline
// dies with the run (the kill was the machine's, not a lost gamble —
// Kills is not charged, see Env.HandleProcFail).
func (s *Sched) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		s.running = sched.Remove(s.running, j)
		delete(s.deadline, j.ID)
		if !sched.Contains(s.queue, j) {
			s.queue = sched.InsertBySubmit(s.queue, j)
		}
	}
	s.schedule()
}

// OnRepair implements sched.Scheduler: recovered capacity may admit the
// head or open new (speculative) holes.
func (s *Sched) OnRepair(int) { s.schedule() }

// enforceDeadlines kills speculative runs that outlived their hole while
// the queue head is still waiting for processors.
func (s *Sched) enforceDeadlines() {
	if len(s.queue) == 0 {
		return // nobody is delayed; let the gamble ride
	}
	now := s.env.Now()
	for _, r := range append([]*job.Job(nil), s.running...) {
		dl, spec := s.deadline[r.ID]
		if !spec || now < dl || r.State != job.Running {
			continue
		}
		s.env.Kill(r)
		s.running = sched.Remove(s.running, r)
		delete(s.deadline, r.ID)
		// A lost gamble keeps its original queue position.
		s.queue = sched.InsertBySubmit(s.queue, r)
	}
}

// start launches j and tracks it; specDeadline > 0 marks a gamble.
func (s *Sched) start(j *job.Job, specDeadline int64) bool {
	if !s.env.StartFresh(j) {
		return false
	}
	s.queue = sched.Remove(s.queue, j)
	s.running = append(s.running, j)
	if specDeadline > 0 {
		s.deadline[j.ID] = specDeadline
	}
	return true
}

// schedule is EASY backfilling plus the speculative rule.
func (s *Sched) schedule() {
	for {
		for len(s.queue) > 0 && s.start(s.queue[0], 0) {
		}
		if len(s.queue) == 0 {
			return
		}
		shadow, extra := s.shadow(s.queue[0])
		now := s.env.Now()
		started := false
		for i := 1; i < len(s.queue); i++ {
			j := s.queue[i]
			if j.Procs > s.env.Cluster.FreeUnclaimed() {
				continue
			}
			// Conventional EASY legality.
			if now+j.Estimate <= shadow || j.Procs <= extra {
				if s.start(j, 0) {
					started = true
					break
				}
				continue
			}
			// Speculative: gamble on a hole of length shadow-now.
			hole := shadow - now
			if hole <= 0 || j.Kills >= s.cfg.MaxKills {
				continue
			}
			if float64(j.Estimate) <= s.cfg.SpecFactor*float64(hole) {
				if s.start(j, shadow) {
					started = true
					break
				}
			}
		}
		if !started {
			return
		}
	}
}

// shadow is the head's projected start and the processors left over at
// that time, read off the running jobs' timeline. A speculative run
// vacates by its deadline (finish or kill), not by its inflated
// estimate.
func (s *Sched) shadow(head *job.Job) (shadowTime int64, extraNodes int) {
	now := s.env.Now()
	up := s.env.Cluster.UpCount()
	s.prof.Reset(now, up)
	var last int64
	for _, r := range s.running {
		end := sched.ProjectedEnd(r)
		if dl, spec := s.deadline[r.ID]; spec && dl < end {
			end = dl
		}
		s.prof.Sub(now, end, r.Procs)
		last = max(last, end)
	}
	if head.Procs > up {
		// Failures can leave the head wider than the surviving machine;
		// treat the last release as the shadow and leave no extra nodes,
		// so backfill stays conservative until capacity returns.
		return last, 0
	}
	shadowTime = s.prof.FindStart(now, head.Procs, head.Estimate)
	return shadowTime, s.prof.FreeAt(shadowTime) - head.Procs
}
