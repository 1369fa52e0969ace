package core

import (
	"testing"
	"testing/quick"

	"pjs/internal/job"
)

// runningJob returns a job that started at time 0 with the given width
// and estimate and has been running ever since (xfactor 1).
func runningJob(id int, procs int, est int64) *job.Job {
	j := job.New(id, 0, est, est, procs)
	j.Dispatch(0, 0)
	return j
}

// waitingJob returns a job submitted at 0 that has waited `wait` seconds
// with the given estimate: xfactor = (wait+est)/est at time `wait`.
func waitingJob(id int, procs int, est, wait int64) *job.Job {
	return job.New(id, -wait, est, est, procs) // submit in the past
}

func TestCanPreemptSFThreshold(t *testing.T) {
	p := Policy{SF: 2}
	victim := runningJob(1, 4, 10000) // xfactor 1
	// Idle job with xfactor exactly 2 may preempt; below 2 may not.
	idle := waitingJob(2, 4, 1000, 1000) // xf(0) = 2
	if !p.CanPreempt(0, idle, victim, false) {
		t.Error("xf ratio exactly SF should allow preemption")
	}
	idleLow := waitingJob(3, 4, 1000, 999) // xf < 2
	if p.CanPreempt(0, idleLow, victim, false) {
		t.Error("xf ratio below SF must block preemption")
	}
}

func TestCanPreemptHalfWidthRule(t *testing.T) {
	p := Policy{SF: 2}
	wideVictim := runningJob(1, 10, 10000)
	narrowIdle := waitingJob(2, 4, 100, 10000) // huge xfactor, but too narrow
	if p.CanPreempt(0, narrowIdle, wideVictim, false) {
		t.Error("half-width rule: 4-proc job must not suspend 10-proc job")
	}
	okIdle := waitingJob(3, 5, 100, 10000) // 10 <= 2*5
	if !p.CanPreempt(0, okIdle, wideVictim, false) {
		t.Error("half-width rule: 5-proc job may suspend 10-proc job")
	}
	// The rule is waived for reentry.
	if !p.CanPreempt(0, narrowIdle, wideVictim, true) {
		t.Error("half-width rule must not apply to reentry")
	}
	// And can be disabled.
	p.DisableHalfWidthRule = true
	if !p.CanPreempt(0, narrowIdle, wideVictim, false) {
		t.Error("DisableHalfWidthRule should waive the rule")
	}
}

func TestCanPreemptTSSLimit(t *testing.T) {
	var limits StaticLimits
	// The victim's estimate is 1000s (Short), 4 procs (Narrow).
	limits[job.Category{Length: job.Short, Width: job.Narrow}.Index()] = 3.0
	p := Policy{SF: 2, Limits: &limits}
	victim := job.New(1, 0, 1000, 1000, 4)
	victim.Dispatch(5000, 0) // waited 5000s: xfactor = 6 > limit 3
	idle := waitingJob(2, 4, 100, 100000)
	if p.CanPreempt(6000, idle, victim, false) {
		t.Error("victim above its category limit must not be preempted")
	}
	// A victim from a category with no limit entry is preemptible.
	victim2 := job.New(3, 0, 90000, 90000, 4) // VeryLong
	victim2.Dispatch(5000, 0)
	if !p.CanPreempt(6000, idle, victim2, false) {
		t.Error("category without a limit should behave like plain SS")
	}
}

func TestCanPreemptMaxSuspensions(t *testing.T) {
	p := Policy{SF: 2, MaxVictimSuspensions: 1}
	victim := job.New(1, 0, 10000, 10000, 4)
	victim.Dispatch(0, 0)
	idle := waitingJob(2, 4, 100, 100000)
	if !p.CanPreempt(0, idle, victim, false) {
		t.Fatal("fresh victim should be preemptible")
	}
	// Suspend and resume the victim once: now it is protected.
	victim.Preempt(10)
	victim.SuspendDone()
	victim.Dispatch(20, 0)
	if p.CanPreempt(30, idle, victim, false) {
		t.Error("victim at the suspension cap must not be preempted")
	}
	// Unlimited (0) keeps it preemptible.
	p.MaxVictimSuspensions = 0
	if !p.CanPreempt(30, idle, victim, false) {
		t.Error("cap 0 must mean unlimited")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Policy{SF: 1}).Validate(); err != nil {
		t.Errorf("SF=1 should validate: %v", err)
	}
	if err := (&Policy{SF: 0.5}).Validate(); err == nil {
		t.Error("SF<1 must fail validation")
	}
}

func TestSelectVictimsNoneNeeded(t *testing.T) {
	p := Policy{SF: 2}
	idle := waitingJob(1, 4, 100, 10000)
	victims, ok := p.SelectVictims(0, idle, nil, 8)
	if !ok || victims != nil {
		t.Error("enough free processors should need no victims")
	}
}

func TestSelectVictimsPicksLowestPriorityThenTrimsLargest(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	// Three running jobs, all preemptible; idle needs 6, 0 free.
	v1 := runningJob(1, 4, 10000)
	v2 := runningJob(2, 3, 10000)
	v3 := runningJob(3, 5, 10000)
	idle := waitingJob(9, 6, 100, 100000)
	victims, ok := p.SelectVictims(0, idle, []*job.Job{v1, v2, v3}, 0)
	if !ok {
		t.Fatal("selection should succeed")
	}
	// Candidate accumulation (ascending priority; all equal → by ID)
	// takes v1 (4) + v2 (3) = 7 ≥ 6. Largest-first trim: v1 then v2.
	if len(victims) != 2 || victims[0] != v1 || victims[1] != v2 {
		ids := []int{}
		for _, v := range victims {
			ids = append(ids, v.ID)
		}
		t.Errorf("victims = %v, want [1 2]", ids)
	}
}

func TestSelectVictimsTrimAvoidsOverSuspension(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	v1 := runningJob(1, 2, 10000)
	v2 := runningJob(2, 2, 10000)
	v3 := runningJob(3, 8, 10000)
	idle := waitingJob(9, 8, 100, 100000)
	victims, ok := p.SelectVictims(0, idle, []*job.Job{v1, v2, v3}, 0)
	if !ok {
		t.Fatal("selection should succeed")
	}
	// Candidates accumulate v1+v2+v3 = 12 ≥ 8; largest-first trim picks
	// just v3 (8 procs) — suspending v1/v2 as well would be waste.
	if len(victims) != 1 || victims[0] != v3 {
		t.Errorf("victims = %v, want just job 3", victims)
	}
}

func TestSelectVictimsRespectsPriority(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	// High-priority running job (recently a long waiter) is not taken.
	lowPrio := runningJob(1, 4, 10000) // xf 1 at t=0
	highPrio := job.New(2, -9000, 1000, 1000, 4)
	highPrio.Dispatch(0, 0)               // waited 9000s before starting: xf 10 at t=0
	idle := waitingJob(9, 8, 1000, 12000) // xf 13: can take xf 1 but not xf 10 (13 < 2*10)
	victims, ok := p.SelectVictims(0, idle, []*job.Job{lowPrio, highPrio}, 0)
	if ok {
		t.Fatalf("victims=%v: 8 procs cannot be covered by the single preemptible job", victims)
	}
	// With 4 free processors the single preemptible 4-proc job suffices.
	victims, ok = p.SelectVictims(0, idle, []*job.Job{lowPrio, highPrio}, 4)
	if !ok || len(victims) != 1 || victims[0] != lowPrio {
		t.Errorf("victims = %v, want [lowPrio]", victims)
	}
}

func TestSelectVictimsIgnoresNonRunning(t *testing.T) {
	p := Policy{SF: 2, DisableHalfWidthRule: true}
	v := runningJob(1, 4, 10000)
	v.Preempt(0) // suspending: not a candidate
	idle := waitingJob(9, 4, 100, 100000)
	if _, ok := p.SelectVictims(0, idle, []*job.Job{v}, 0); ok {
		t.Error("suspending job must not be selected as victim")
	}
}

func TestSelectReentryVictims(t *testing.T) {
	p := Policy{SF: 2}
	holder := runningJob(1, 3, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	classify := func(proc int) (ReentryBlocked, *job.Job) {
		if proc < 2 {
			return ReentryFree, nil
		}
		return ReentryPreemptible, holder
	}
	victims, ok := p.SelectReentryVictims(0, idle, classify)
	if !ok || len(victims) != 1 || victims[0] != holder {
		t.Errorf("victims=%v ok=%v, want [holder] true", victims, ok)
	}
}

func TestSelectReentryVictimsHardBlock(t *testing.T) {
	p := Policy{SF: 2}
	idle := waitingJob(9, 2, 100, 100000)
	idle.ProcSet = []int{0, 1}
	classify := func(proc int) (ReentryBlocked, *job.Job) {
		if proc == 0 {
			return ReentryFree, nil
		}
		return ReentryHard, nil
	}
	if _, ok := p.SelectReentryVictims(0, idle, classify); ok {
		t.Error("hard-blocked processor must fail reentry selection")
	}
}

func TestSelectReentryVictimsPriorityBlock(t *testing.T) {
	p := Policy{SF: 2}
	holder := job.New(1, 0, 100, 100, 2)
	holder.Dispatch(900, 0)              // xf 10
	idle := waitingJob(9, 2, 1000, 1500) // xf 2.5 < 2*10
	idle.ProcSet = []int{0, 1}
	classify := func(int) (ReentryBlocked, *job.Job) { return ReentryPreemptible, holder }
	if _, ok := p.SelectReentryVictims(1000, idle, classify); ok {
		t.Error("holder above the SF threshold must block reentry")
	}
}

func TestSelectReentryVictimsDedupes(t *testing.T) {
	p := Policy{SF: 2}
	holder := runningJob(1, 4, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	classify := func(int) (ReentryBlocked, *job.Job) { return ReentryPreemptible, holder }
	victims, ok := p.SelectReentryVictims(0, idle, classify)
	if !ok || len(victims) != 1 {
		t.Errorf("victims=%v, want deduped single holder", victims)
	}
}

// Property: SelectVictims only ever returns ok=true with victims whose
// widths plus free processors cover the request, and every victim
// passes CanPreempt.
func TestSelectVictimsProperty(t *testing.T) {
	p := Policy{SF: 1.5}
	f := func(widths []uint8, idleProcs uint8, free uint8) bool {
		idle := waitingJob(99, int(idleProcs%32)+1, 500, 50000)
		var running []*job.Job
		for i, w := range widths {
			running = append(running, runningJob(i+1, int(w%16)+1, 5000))
		}
		victims, ok := p.SelectVictims(0, idle, running, int(free%8))
		if !ok {
			return true
		}
		sum := int(free % 8)
		for _, v := range victims {
			if !p.CanPreempt(0, idle, v, false) {
				return false
			}
			sum += v.Procs
		}
		return sum >= idle.Procs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Coverable is exactly SelectVictims's feasibility — the two
// agree on every input where a preemption is needed, with mixed widths,
// priorities and the half-width rule in play.
func TestCoverableMatchesSelectVictims(t *testing.T) {
	p := Policy{SF: 1.5}
	f := func(widths, waits []uint8, idleProcs uint8, free uint8) bool {
		idle := waitingJob(99, int(idleProcs%32)+1, 500, 5000)
		var running []*job.Job
		for i, w := range widths {
			r := runningJob(i+1, int(w%16)+1, 5000)
			if i < len(waits) {
				r.SubmitTime = -int64(waits[i]) * 100 // raises its xfactor
			}
			running = append(running, r)
		}
		fr := int(free % 8)
		if fr >= idle.Procs {
			return true // SelectVictims needs no victims; Coverable is not asked
		}
		_, ok := p.SelectVictims(0, idle, running, fr)
		return p.Coverable(0, idle, running, fr) == ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ReentryPreempts is true exactly when SelectReentryVictims succeeds
// with at least one victim: a fully free set preempts nobody.
func TestReentryPreempts(t *testing.T) {
	p := Policy{SF: 2}
	holder := runningJob(1, 3, 10000)
	idle := waitingJob(9, 4, 100, 100000)
	idle.ProcSet = []int{0, 1, 2, 3}
	cases := map[string]struct {
		classify ReentryClassifier
		want     bool
	}{
		"free": {func(int) (ReentryBlocked, *job.Job) { return ReentryFree, nil }, false},
		"held": {func(proc int) (ReentryBlocked, *job.Job) {
			if proc < 2 {
				return ReentryFree, nil
			}
			return ReentryPreemptible, holder
		}, true},
		"hard": {func(proc int) (ReentryBlocked, *job.Job) {
			if proc == 3 {
				return ReentryHard, nil
			}
			return ReentryPreemptible, holder
		}, false},
	}
	for name, c := range cases {
		victims, ok := p.SelectReentryVictims(0, idle, c.classify)
		if got := p.ReentryPreempts(0, idle, c.classify); got != c.want || got != (ok && len(victims) > 0) {
			t.Errorf("%s: ReentryPreempts = %v, want %v (SelectReentryVictims %v, %v)", name, got, c.want, victims, ok)
		}
	}
}

func TestLimitsFromSlowdowns(t *testing.T) {
	var avg [16]float64
	avg[0] = 4.0
	avg[5] = 0.5 // degenerate input below 1
	limits := LimitsFromSlowdowns(avg)
	if l, ok := limits.Limit(job.Category{Length: job.VeryShort, Width: job.Sequential}); !ok || l != 6.0 {
		t.Errorf("limit[0] = %v,%v want 6,true", l, ok)
	}
	if l, ok := limits.Limit(job.Category{Length: job.Short, Width: job.Narrow}); !ok || l != TSSLimitFactor {
		t.Errorf("degenerate limit = %v,%v want floor %v", l, ok, TSSLimitFactor)
	}
	if _, ok := limits.Limit(job.Category{Length: job.VeryLong, Width: job.VeryWide}); ok {
		t.Error("category without data must have no limit")
	}
}

func TestAdaptiveLimitsWarmup(t *testing.T) {
	a := &AdaptiveLimits{MinSamples: 3}
	c := job.Category{Length: job.VeryShort, Width: job.Wide}
	if _, ok := a.Limit(c); ok {
		t.Error("no limit before warm-up")
	}
	a.Observe(c, 10)
	a.Observe(c, 20)
	if _, ok := a.Limit(c); ok {
		t.Error("no limit with 2 of 3 samples")
	}
	a.Observe(c, 30)
	l, ok := a.Limit(c)
	if !ok || l != TSSLimitFactor*20 {
		t.Errorf("limit = %v,%v want %v,true", l, ok, TSSLimitFactor*20)
	}
}
