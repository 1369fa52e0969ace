package ss

import (
	"fmt"
	"sort"
	"testing"

	"pjs/internal/core"
	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// oracle is the reference implementation of the SS/TSS passes that the
// order-free dry runs replaced: both passes always copy and sort the
// idle queue and try every job, and victim selection always sorts its
// candidates. It shares the policy's queue bookkeeping (commit) but
// none of its decision code — the preemption rules, victim selection,
// reentry classification and I/O-health filter are its own copies — so
// equal audit logs prove the dry runs exact and the shared feasibility
// tests faithful.
type oracle struct{ *Sched }

func newOracle(cfg Config) oracle { return oracle{New(cfg)} }

func (o oracle) OnArrival(j *job.Job) {
	o.queue = append(o.queue, j)
	o.schedulePass()
}

func (o oracle) OnCompletion(j *job.Job) {
	o.running = sched.Remove(o.running, j)
	if o.cfg.Adaptive != nil {
		o.cfg.Adaptive.Observe(j.EstimateCategory(), boundedSlowdown(j))
	}
	o.schedulePass()
}

func (o oracle) OnSuspendDone(j *job.Job) {
	o.queue = append(o.queue, j)
	o.schedulePass()
}

func (o oracle) OnTick() {
	o.preemptionPass()
	o.schedulePass()
}

func (o oracle) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		o.running = sched.Remove(o.running, j)
		if !sched.Contains(o.queue, j) {
			o.queue = append(o.queue, j)
		}
	}
	o.schedulePass()
}

func (o oracle) OnRepair(int) { o.schedulePass() }

func (o oracle) schedulePass() {
	now := o.env.Now()
	idle := append([]*job.Job(nil), o.queue...)
	sched.SortByXFactor(idle, now)
	for _, j := range idle {
		started := false
		switch {
		case j.State != job.Suspended:
			started = o.env.StartFresh(j)
		case o.cfg.Migration:
			started = o.env.ResumeAnywhere(j)
		default:
			started = o.env.Resume(j)
		}
		if started {
			o.queue = sched.Remove(o.queue, j)
			o.running = append(o.running, j)
		}
	}
}

func (o oracle) preemptionPass() {
	now := o.env.Now()
	idle := append([]*job.Job(nil), o.queue...)
	sched.SortByXFactor(idle, now)
	for _, j := range idle {
		if j.State == job.Suspended && !o.cfg.Migration {
			o.tryReentry(j, now)
		} else {
			o.tryPreempt(j, now)
		}
	}
}

func (o oracle) tryPreempt(j *job.Job, now int64) {
	free := o.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return
	}
	cands := o.running
	if o.env.IOHealthActive() {
		healthy := make([]*job.Job, 0, len(cands))
		for _, r := range cands {
			if o.env.SetIOHealthy(r.ProcSet) {
				healthy = append(healthy, r)
			}
		}
		cands = healthy
	}
	victims, ok := o.selectVictims(now, j, cands, free)
	if !ok || len(victims) == 0 {
		return
	}
	claim := o.env.Cluster.ListFreeUnclaimed(j.Procs)
	for _, v := range victims {
		for _, p := range v.ProcSet {
			if len(claim) == j.Procs {
				break
			}
			claim = append(claim, p)
		}
	}
	o.commit(j, victims, claim)
}

func (o oracle) tryReentry(j *job.Job, now int64) {
	cl := o.env.Cluster
	seen := make(map[int]bool)
	var victims []*job.Job
	for _, proc := range j.ProcSet {
		owner := cl.Owner(proc)
		if owner == -1 {
			if c := cl.Claimant(proc); c != -1 && c != j.ID {
				return
			}
			continue
		}
		holder := o.env.JobByID(owner)
		if holder.State != job.Running || !o.env.SetIOHealthy(holder.ProcSet) ||
			!o.canPreempt(now, j, holder, true) {
			return
		}
		if !seen[holder.ID] {
			seen[holder.ID] = true
			victims = append(victims, holder)
		}
	}
	if len(victims) == 0 {
		return
	}
	o.commit(j, victims, j.ProcSet)
}

// canPreempt is the SS/TSS rule of Section IV: suspension cap, TSS
// limit, half-width rule (fresh jobs only), then the suspension factor.
func (o oracle) canPreempt(now int64, idle, victim *job.Job, reentry bool) bool {
	p := o.pol
	if p.MaxVictimSuspensions > 0 && victim.Suspensions >= p.MaxVictimSuspensions {
		return false
	}
	if p.Limits != nil {
		if lim, ok := p.Limits.Limit(victim.EstimateCategory()); ok && victim.XFactor(now) > lim {
			return false
		}
	}
	if !reentry && !p.DisableHalfWidthRule && victim.Procs > 2*idle.Procs {
		return false
	}
	return idle.XFactor(now) >= p.SF*victim.XFactor(now)
}

// selectVictims is suspend_jobs_1 with an unconditional candidate sort.
func (o oracle) selectVictims(now int64, idle *job.Job, running []*job.Job, freeProcs int) ([]*job.Job, bool) {
	cands := make([]*job.Job, 0, len(running))
	for _, r := range running {
		if r.State == job.Running {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(i, k int) bool {
		xi, xk := cands[i].XFactor(now), cands[k].XFactor(now)
		if xi != xk {
			return xi < xk
		}
		return cands[i].ID < cands[k].ID
	})
	avail := freeProcs
	var chosen []*job.Job
	for _, v := range cands {
		if avail >= idle.Procs {
			break
		}
		if o.canPreempt(now, idle, v, false) {
			chosen = append(chosen, v)
			avail += v.Procs
		}
	}
	if avail < idle.Procs {
		return nil, false
	}
	sort.SliceStable(chosen, func(i, k int) bool {
		if chosen[i].Procs != chosen[k].Procs {
			return chosen[i].Procs > chosen[k].Procs
		}
		return chosen[i].ID < chosen[k].ID
	})
	var victims []*job.Job
	avail = freeProcs
	for _, v := range chosen {
		if avail >= idle.Procs {
			break
		}
		victims = append(victims, v)
		avail += v.Procs
	}
	return victims, true
}

// The dry-run passes must schedule exactly like the always-sort oracle:
// byte-identical audit logs on random traces, for every SS/TSS variant,
// with and without processor faults, transient I/O faults and
// suspension overhead.
func TestDryRunMatchesOracleOnRandomTraces(t *testing.T) {
	limits := core.LimitsFromSlowdowns([16]float64{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4})
	configs := []struct {
		name string
		cfg  func() Config // fresh per run: adaptive limits are stateful
	}{
		{"ss1.5", func() Config { return Config{SF: 1.5} }},
		{"ss2", func() Config { return Config{SF: 2} }},
		{"ss5", func() Config { return Config{SF: 5} }},
		{"tss-static", func() Config { return Config{SF: 2, Limits: limits} }},
		{"tss-adaptive", func() Config { return Config{SF: 2, Adaptive: &core.AdaptiveLimits{MinSamples: 3}} }},
		{"ssmig", func() Config { return Config{SF: 2, Migration: true} }},
		{"max1", func() Config { return Config{SF: 1.5, MaxSuspensions: 1} }},
		{"nohalfwidth", func() Config { return Config{SF: 2, DisableHalfWidthRule: true} }},
	}
	conds := []struct {
		name string
		opt  sched.Options
	}{
		{"nofault", sched.Options{}},
		{"mtbf", sched.Options{Faults: fault.Config{MTBF: 200 * 3600, MTTR: 2 * 3600, Seed: 3}}},
		{"transient", sched.Options{Transient: fault.TransientConfig{WriteFailProb: 0.3, ReadFailProb: 0.2, Seed: 5}}},
		{"disk", sched.Options{Overhead: overhead.Disk{}}},
	}
	var failures, degradations, suspensions int
	for _, model := range []workload.Model{workload.SDSC(), workload.CTC()} {
		model.Procs = 64
		for seed := int64(1); seed <= 2; seed++ {
			tr := workload.Generate(model, workload.GenOptions{Jobs: 250, Seed: seed}).ScaleLoad(1.3)
			for _, c := range conds {
				for _, cf := range configs {
					label := fmt.Sprintf("%s/seed%d/%s/%s", model.Name, seed, c.name, cf.name)
					opt := c.opt
					opt.Audit, opt.MaxSteps = true, 5_000_000
					got, err := sched.RunChecked(tr, New(cf.cfg()), opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := sched.RunChecked(tr, newOracle(cf.cfg()), opt)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					if g, w := got.Audit.String(), want.Audit.String(); g != w {
						t.Fatalf("%s: dry-run schedule differs from the oracle's (%d vs %d audit bytes)", label, len(g), len(w))
					}
					failures += got.Failures
					degradations += got.IODegradations
					suspensions += got.Suspensions
				}
			}
		}
	}
	if failures == 0 || degradations == 0 || suspensions == 0 {
		t.Errorf("matrix too tame: %d processor failures, %d I/O degradations, %d suspensions",
			failures, degradations, suspensions)
	}
}

// allocProbe runs SS and, on its first ticks with both idle and running
// jobs whose preemption pass the dry run rejects, measures that pass's
// allocations.
type allocProbe struct {
	*Sched
	t       *testing.T
	checked int
}

func (a *allocProbe) OnTick() {
	now := a.env.Now()
	if a.checked < 20 && len(a.queue) > 0 && len(a.running) > 0 && !a.wouldPreempt(now) {
		if n := testing.AllocsPerRun(2, a.preemptionPass); n != 0 {
			a.t.Errorf("t=%d: a preemption pass that commits nothing made %v allocations", now, n)
		}
		a.checked++
	}
	a.Sched.OnTick()
}

// A preemption pass that commits nothing returns without allocating,
// also under transient I/O faults, where the victim candidates are
// filtered by I/O health.
func TestNoOpPreemptionPassDoesNotAllocate(t *testing.T) {
	model := workload.SDSC()
	model.Procs = 64
	tr := workload.Generate(model, workload.GenOptions{Jobs: 250, Seed: 1}).ScaleLoad(1.3)
	a := &allocProbe{Sched: New(Config{SF: 2}), t: t}
	opt := sched.Options{Transient: fault.TransientConfig{WriteFailProb: 0.3, ReadFailProb: 0.2, Seed: 5}}
	if _, err := sched.RunChecked(tr, a, opt); err != nil {
		t.Fatal(err)
	}
	if a.checked == 0 {
		t.Fatal("no tick had a preemption pass to measure")
	}
}
