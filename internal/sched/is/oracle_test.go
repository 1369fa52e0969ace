package is

import (
	"fmt"
	"sort"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// oracle is the reference implementation of the IS pass that the
// order-free dry run replaced: it always copies and sorts the idle
// queue and tries every job. It shares the policy's bookkeeping
// (markStarted, protected) but has its own victim filter, so equal
// audit logs prove the dry run exact and the shared suspendable test
// faithful.
type oracle struct{ *Sched }

func (o oracle) OnArrival(j *job.Job) {
	o.queue = append(o.queue, j)
	o.schedule()
}

func (o oracle) OnCompletion(j *job.Job) {
	o.running = sched.Remove(o.running, j)
	delete(o.sliceEnd, j.ID)
	o.schedule()
}

func (o oracle) OnSuspendDone(j *job.Job) {
	o.queue = append(o.queue, j)
	o.schedule()
}

func (o oracle) OnTick() { o.schedule() }

func (o oracle) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		o.running = sched.Remove(o.running, j)
		delete(o.sliceEnd, j.ID)
		if !sched.Contains(o.queue, j) {
			o.queue = append(o.queue, j)
		}
	}
	o.schedule()
}

func (o oracle) OnRepair(int) { o.schedule() }

func (o oracle) schedule() {
	now := o.env.Now()
	idle := append([]*job.Job(nil), o.queue...)
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
			if o.env.Resume(j) {
				o.queue = sched.Remove(o.queue, j)
				o.markStarted(j, now)
			}
		case o.env.StartFresh(j):
			o.queue = sched.Remove(o.queue, j)
			o.markStarted(j, now)
		case j.FirstStart < 0:
			o.tryImmediate(j, now)
		}
	}
}

func (o oracle) tryImmediate(j *job.Job, now int64) {
	free := o.env.Cluster.FreeUnclaimed()
	if free >= j.Procs {
		return
	}
	var cands []*job.Job
	for _, r := range o.running {
		if r.State == job.Running && !o.protected(r, now) && o.env.SetIOHealthy(r.ProcSet) {
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
		o.running = sched.Remove(o.running, v)
		delete(o.sliceEnd, v.ID)
	}
	o.queue = sched.Remove(o.queue, j)
	o.env.PreemptAndStart(j, victims, claim)
	o.markStarted(j, now)
}

// The dry-run pass must schedule exactly like the always-sort oracle:
// byte-identical audit logs on random traces, with and without
// processor faults, transient I/O faults and suspension overhead.
func TestDryRunMatchesOracleOnRandomTraces(t *testing.T) {
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
		for seed := int64(1); seed <= 3; seed++ {
			tr := workload.Generate(model, workload.GenOptions{Jobs: 250, Seed: seed}).ScaleLoad(1.3)
			for _, c := range conds {
				label := fmt.Sprintf("%s/seed%d/%s", model.Name, seed, c.name)
				opt := c.opt
				opt.Audit, opt.MaxSteps = true, 5_000_000
				got, err := sched.RunChecked(tr, New(), opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := sched.RunChecked(tr, oracle{New()}, opt)
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
	if failures == 0 || degradations == 0 || suspensions == 0 {
		t.Errorf("matrix too tame: %d processor failures, %d I/O degradations, %d suspensions",
			failures, degradations, suspensions)
	}
}
