package sched_test

import (
	"testing"
	"testing/quick"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/conservative"
	"pjs/internal/sched/depthbf"
	"pjs/internal/sched/fcfs"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// When every job requests the full machine there are no holes to
// backfill, so FCFS, EASY and conservative backfilling must produce the
// identical schedule.
func TestBackfillVariantsAgreeOnFullWidthJobs(t *testing.T) {
	f := func(runs []uint16, gaps []uint16) bool {
		if len(runs) == 0 {
			return true
		}
		if len(runs) > 40 {
			runs = runs[:40]
		}
		tr := &workload.Trace{Name: "fw", Procs: 8}
		submit := int64(0)
		for i, r := range runs {
			if i < len(gaps) {
				submit += int64(gaps[i] % 500)
			}
			run := int64(r%3000) + 1
			tr.Jobs = append(tr.Jobs, job.New(i+1, submit, run, run, 8))
		}
		var finishes [3][]int64
		for si, s := range []sched.Scheduler{fcfs.New(), depthbf.New(1), conservative.New()} {
			res := sched.Run(tr, s, sched.Options{MaxSteps: 1_000_000})
			for _, j := range res.Jobs {
				finishes[si] = append(finishes[si], j.FinishTime)
			}
		}
		for i := range finishes[0] {
			if finishes[0][i] != finishes[1][i] || finishes[0][i] != finishes[2][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// With an astronomically large suspension factor, SS never preempts; on
// a workload with accurate estimates it must report zero suspensions.
func TestSSHugeSFNeverSuspends(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 32
	tr := workload.Generate(m, workload.GenOptions{Jobs: 300, Seed: 12})
	res := sched.Run(tr, ss.New(ss.Config{SF: 1e12}), sched.Options{MaxSteps: 10_000_000})
	if res.Suspensions != 0 {
		t.Errorf("suspensions = %d, want 0 at SF=1e12", res.Suspensions)
	}
}

// Seed sweep: every policy passes the full invariant check across many
// random workloads, with and without estimate inaccuracy.
func TestSeedSweepInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	m := workload.SDSC()
	m.Procs = 48
	for seed := int64(10); seed < 16; seed++ {
		for _, est := range []workload.EstimateMode{workload.EstimateAccurate, workload.EstimateInaccurate} {
			tr := workload.Generate(m, workload.GenOptions{Jobs: 250, Seed: seed, Estimates: est})
			for _, s := range allSchedulers() {
				res := sched.Run(tr, s, sched.Options{Audit: true, MaxSteps: 10_000_000})
				if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
					t.Fatalf("seed %d %v %s: %v", seed, est, res.Scheduler, err)
				}
			}
		}
	}
}

// Turnaround of every job is at least its run time, under every policy.
func TestTurnaroundLowerBound(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 48
	tr := workload.Generate(m, workload.GenOptions{Jobs: 300, Seed: 17})
	for _, s := range allSchedulers() {
		res := sched.Run(tr, s, sched.Options{MaxSteps: 10_000_000})
		for _, j := range res.Jobs {
			if j.Turnaround() < j.RunTime {
				t.Fatalf("%s: job %d turnaround %d < run time %d",
					res.Scheduler, j.ID, j.Turnaround(), j.RunTime)
			}
		}
	}
}

// No policy may start a job before its submission.
func TestNoTimeTravel(t *testing.T) {
	m := workload.CTC()
	m.Procs = 64
	tr := workload.Generate(m, workload.GenOptions{Jobs: 300, Seed: 19})
	for _, s := range allSchedulers() {
		res := sched.Run(tr, s, sched.Options{MaxSteps: 10_000_000})
		for _, j := range res.Jobs {
			if j.FirstStart < j.SubmitTime {
				t.Fatalf("%s: job %d started at %d before submit %d",
					res.Scheduler, j.ID, j.FirstStart, j.SubmitTime)
			}
		}
	}
}
