package depthbf

import (
	"fmt"
	"testing"

	"pjs/internal/fault"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// oracle is the reference implementation of reservation-depth
// backfilling that the single-profile Fits test replaced: for every
// candidate it rebuilds the whole profile with the candidate started,
// re-anchors every reservation, and admits the candidate only if no
// anchor moved later. It shares the policy's queue bookkeeping but none
// of its legality machinery, so equal audit logs prove the Fits rule
// exact.
type oracle struct{ *Sched }

func newOracle(depth int) oracle { return oracle{New(depth)} }

func (o oracle) OnArrival(j *job.Job) {
	o.queue = append(o.queue, j)
	o.schedule()
}

func (o oracle) OnCompletion(j *job.Job) {
	o.running = sched.Remove(o.running, j)
	o.schedule()
}

func (o oracle) OnFailure(p int, requeued []*job.Job) {
	for _, j := range requeued {
		o.running = sched.Remove(o.running, j)
		if !sched.Contains(o.queue, j) {
			o.queue = sched.InsertBySubmit(o.queue, j)
		}
	}
	o.schedule()
}

func (o oracle) OnRepair(int) { o.schedule() }

// profile builds the availability timeline of the running jobs from
// scratch.
func (o oracle) profile(now int64) *sched.Profile {
	p := sched.NewProfile(now, o.env.Cluster.UpCount())
	for _, r := range o.running {
		if end := sched.ProjectedEnd(r); end > now {
			p.Sub(now, end, r.Procs)
		}
	}
	return p
}

// anchors computes the reservation starts of the first depth queued
// jobs against p (which is consumed).
func (o oracle) anchors(p *sched.Profile, now int64) []int64 {
	n := min(o.depth, len(o.queue))
	capacity := o.env.Cluster.UpCount()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		j := o.queue[i]
		if j.Procs > capacity {
			out[i] = sched.FarFuture
			continue
		}
		a := p.FindStart(now, j.Procs, j.Estimate)
		p.Sub(a, a+j.Estimate, j.Procs)
		out[i] = a
	}
	return out
}

func (o oracle) schedule() {
	for {
		now := o.env.Now()
		base := o.anchors(o.profile(now), now)
		started := false
		for i := 0; i < len(base); i++ {
			if base[i] == now && o.queue[i].Procs <= o.env.Cluster.FreeUnclaimed() {
				if o.start(o.queue[i]) {
					started = true
					break
				}
			}
		}
		if started {
			continue
		}
		for i := len(base); i < len(o.queue); i++ {
			c := o.queue[i]
			if c.Procs > o.env.Cluster.FreeUnclaimed() {
				continue
			}
			if o.backfillLegal(c, now, base) && o.start(c) {
				started = true
				break
			}
		}
		if !started {
			return
		}
	}
}

// backfillLegal reports whether starting candidate c now leaves every
// reserved job's anchor at or before its current value.
func (o oracle) backfillLegal(c *job.Job, now int64, base []int64) bool {
	p := o.profile(now)
	p.Sub(now, now+c.Estimate, c.Procs)
	capacity := o.env.Cluster.UpCount()
	idx := 0
	for i := 0; i < len(o.queue) && idx < len(base); i++ {
		j := o.queue[i]
		if j == c {
			continue
		}
		if j.Procs > capacity {
			// Parked at FarFuture in base too; the candidate cannot
			// delay it further.
			idx++
			continue
		}
		a := p.FindStart(now, j.Procs, j.Estimate)
		if a > base[idx] {
			return false
		}
		p.Sub(a, a+j.Estimate, j.Procs)
		idx++
	}
	return true
}

// The single-profile Fits rule must schedule exactly like the oracle
// that re-anchors every reservation per candidate: byte-identical audit
// logs on random traces, at several depths, with and without processor
// faults.
func TestFitsMatchesOracleOnRandomTraces(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 48
	faults := []fault.Config{{}, {MTBF: 100 * 3600, MTTR: 2 * 3600, Seed: 3}}
	for seed := int64(1); seed <= 3; seed++ {
		for _, est := range []workload.EstimateMode{workload.EstimateAccurate, workload.EstimateInaccurate} {
			tr := workload.Generate(m, workload.GenOptions{Jobs: 250, Seed: seed, Estimates: est})
			for _, fc := range faults {
				for _, depth := range []int{1, 2, 4, 16} {
					name := fmt.Sprintf("seed%d/est%d/mtbf%d/depth%d", seed, est, fc.MTBF, depth)
					opt := sched.Options{Audit: true, MaxSteps: 10_000_000, Faults: fc}
					got, err := sched.RunChecked(tr, New(depth), opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := sched.RunChecked(tr, newOracle(depth), opt)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if fc.Enabled() && got.Failures == 0 {
						t.Fatalf("%s: fault model injected no failures", name)
					}
					if g, w := got.Audit.String(), want.Audit.String(); g != w {
						t.Fatalf("%s: Fits schedule differs from the oracle's (%d vs %d audit bytes)", name, len(g), len(w))
					}
				}
			}
		}
	}
}
