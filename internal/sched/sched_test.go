package sched_test

import (
	"fmt"
	"testing"

	"pjs/internal/check"
	"pjs/internal/core"
	"pjs/internal/job"
	"pjs/internal/overhead"
	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/fcfs"
	"pjs/internal/sched/gang"
	"pjs/internal/sched/is"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// allSchedulers returns a fresh instance of every policy that obeys the
// strict local-restart invariant (the migration variant has its own
// relaxed-check tests).
func allSchedulers() []sched.Scheduler {
	return []sched.Scheduler{
		fcfs.New(),
		depthbf.New(1),
		conservative.New(),
		is.New(),
		gang.New(gang.Config{}),
		ss.New(ss.Config{SF: 2}),
		ss.New(ss.Config{SF: 1.5}),
		ss.New(ss.Config{SF: 2, Adaptive: &core.AdaptiveLimits{}}),
	}
}

func smallTrace(seed int64, n int) *workload.Trace {
	m := workload.SDSC()
	m.Procs = 64
	return workload.Generate(m, workload.GenOptions{Jobs: n, Seed: seed})
}

func TestAllSchedulersCompleteAndPassInvariants(t *testing.T) {
	tr := smallTrace(1, 400)
	for _, s := range allSchedulers() {
		res := sched.Run(tr, s, sched.Options{Audit: true, MaxSteps: 5_000_000})
		if len(res.Jobs) != 400 {
			t.Fatalf("%s: %d jobs", s.Name(), len(res.Jobs))
		}
		for _, j := range res.Jobs {
			if j.State != job.Finished {
				t.Fatalf("%s: %v not finished", s.Name(), j)
			}
		}
		if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%s: utilization %v out of (0,1]", s.Name(), res.Utilization)
		}
	}
}

func TestAllSchedulersWithOverheadPassInvariants(t *testing.T) {
	tr := smallTrace(2, 300)
	for _, s := range []sched.Scheduler{
		is.New(),
		ss.New(ss.Config{SF: 2}),
	} {
		res := sched.Run(tr, s, sched.Options{
			Audit:    true,
			Overhead: overhead.Disk{},
			MaxSteps: 5_000_000,
		})
		if err := check.Check(res.Audit, check.Options{}); err != nil {
			t.Errorf("%s with overhead: %v", s.Name(), err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallTrace(3, 300)
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return depthbf.New(1) },
		func() sched.Scheduler { return ss.New(ss.Config{SF: 2}) },
		func() sched.Scheduler { return is.New() },
	} {
		a := sched.Run(tr, mk(), sched.Options{MaxSteps: 5_000_000})
		b := sched.Run(tr, mk(), sched.Options{MaxSteps: 5_000_000})
		if a.End != b.End || a.Suspensions != b.Suspensions {
			t.Errorf("%s: nondeterministic (end %d vs %d, susp %d vs %d)",
				a.Scheduler, a.End, b.End, a.Suspensions, b.Suspensions)
		}
		for i := range a.Jobs {
			if a.Jobs[i].FinishTime != b.Jobs[i].FinishTime {
				t.Fatalf("%s: job %d finish %d vs %d", a.Scheduler,
					a.Jobs[i].ID, a.Jobs[i].FinishTime, b.Jobs[i].FinishTime)
			}
		}
	}
}

func TestRunDoesNotMutateTrace(t *testing.T) {
	tr := smallTrace(4, 100)
	sched.Run(tr, depthbf.New(1), sched.Options{})
	for _, j := range tr.Jobs {
		if j.State != job.Queued || j.FinishTime != -1 {
			t.Fatal("Run mutated the caller's trace")
		}
	}
}

func TestNonPreemptiveSchedulersNeverSuspend(t *testing.T) {
	tr := smallTrace(5, 300)
	for _, s := range []sched.Scheduler{fcfs.New(), depthbf.New(1), conservative.New()} {
		res := sched.Run(tr, s, sched.Options{})
		if res.Suspensions != 0 {
			t.Errorf("%s: %d suspensions", s.Name(), res.Suspensions)
		}
	}
}

func TestPreemptiveSchedulersDoSuspend(t *testing.T) {
	tr := smallTrace(6, 500)
	for _, s := range []sched.Scheduler{is.New(), ss.New(ss.Config{SF: 1.5})} {
		res := sched.Run(tr, s, sched.Options{MaxSteps: 5_000_000})
		if res.Suspensions == 0 {
			t.Errorf("%s: no suspensions on a loaded trace", s.Name())
		}
	}
}

// Backfilling must beat plain FCFS on average turnaround for a loaded
// mixed workload — the Section II motivation.
func TestBackfillingBeatsFCFS(t *testing.T) {
	tr := smallTrace(7, 600)
	mean := func(s sched.Scheduler) float64 {
		res := sched.Run(tr, s, sched.Options{MaxSteps: 5_000_000})
		var sum float64
		for _, j := range res.Jobs {
			sum += float64(j.Turnaround())
		}
		return sum / float64(len(res.Jobs))
	}
	f := mean(fcfs.New())
	e := mean(depthbf.New(1))
	if e >= f {
		t.Errorf("EASY mean TAT %.0f not better than FCFS %.0f", e, f)
	}
}

func TestRunPanicsOnInvalidTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid trace")
		}
	}()
	bad := &workload.Trace{Name: "bad", Procs: 4}
	sched.Run(bad, fcfs.New(), sched.Options{})
}

func TestSortByXFactor(t *testing.T) {
	now := int64(1000)
	// Short waiter has higher xfactor than long waiter at same wait.
	a := job.New(1, 0, 100, 100, 1)   // xf = (1000+100)/100 = 11
	b := job.New(2, 0, 5000, 5000, 1) // xf = 1.2
	c := job.New(3, 500, 100, 100, 1) // xf = 6
	jobs := []*job.Job{b, c, a}
	sched.SortByXFactor(jobs, now)
	if jobs[0] != a || jobs[1] != c || jobs[2] != b {
		t.Errorf("order = %d,%d,%d want 1,3,2", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
}

func TestSortByXFactorTieBreak(t *testing.T) {
	now := int64(100)
	a := job.New(5, 0, 100, 100, 1)
	b := job.New(2, 0, 100, 100, 1) // same xf; lower ID wins
	jobs := []*job.Job{a, b}
	sched.SortByXFactor(jobs, now)
	if jobs[0] != b {
		t.Error("ties should break by ID")
	}
}

func TestRemove(t *testing.T) {
	a := job.New(1, 0, 1, 1, 1)
	b := job.New(2, 0, 1, 1, 1)
	c := job.New(3, 0, 1, 1, 1)
	q := []*job.Job{a, b, c}
	q = sched.Remove(q, b)
	if len(q) != 2 || q[0] != a || q[1] != c {
		t.Errorf("Remove broke order: %v", q)
	}
	q = sched.Remove(q, b) // not present: no-op
	if len(q) != 2 {
		t.Error("Remove of absent job changed the queue")
	}
}

func TestResultMakespan(t *testing.T) {
	tr := smallTrace(8, 50)
	res := sched.Run(tr, depthbf.New(1), sched.Options{})
	if res.Makespan() != res.End-res.Start {
		t.Error("Makespan mismatch")
	}
	if res.End < res.Start {
		t.Error("End before Start")
	}
}

func TestSchedulerNames(t *testing.T) {
	want := map[string]sched.Scheduler{
		"FCFS":         fcfs.New(),
		"NS":           depthbf.New(1),
		"Conservative": conservative.New(),
		"IS":           is.New(),
		"SS(SF=2)":     ss.New(ss.Config{SF: 2}),
		"SS(SF=1.5)":   ss.New(ss.Config{SF: 1.5}),
	}
	for name, s := range want {
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
}

func ExampleRun() {
	tr := &workload.Trace{
		Name:  "example",
		Procs: 4,
		Jobs: []*job.Job{
			job.New(1, 0, 100, 100, 4),
			job.New(2, 10, 50, 50, 2),
		},
	}
	res := sched.Run(tr, fcfs.New(), sched.Options{})
	fmt.Println(res.Jobs[0].FinishTime, res.Jobs[1].FinishTime)
	// Output: 100 150
}
