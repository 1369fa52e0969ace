package depthbf_test

import (
	"testing"

	"pjs/internal/check"
	"pjs/internal/job"
	"pjs/internal/sched"
	"pjs/internal/sched/depthbf"
	"pjs/internal/workload"
)

func run(t *testing.T, tr *workload.Trace, depth int) map[int]*job.Job {
	t.Helper()
	res := sched.Run(tr, depthbf.New(depth), sched.Options{MaxSteps: 2_000_000})
	byID := map[int]*job.Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	return byID
}

// figure2 is the EASY situation of Figure 2: a wide head blocked behind
// a running job, a short job that fits the hole before the head's
// reservation, and a long narrow job that does not.
func figure2() *workload.Trace {
	return &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 3),  // running, ends at 100
		job.New(2, 10, 200, 200, 4), // head, reservation at 100
		job.New(3, 20, 50, 50, 1),   // fits the hole: 20+50 ≤ 100
		job.New(4, 25, 200, 200, 1), // too long for the hole, 0 extra nodes
	}}
}

// Depth 1 reproduces the EASY scenario of Figure 2: a short job
// backfills past a blocked wide head.
func TestDepthOneBehavesLikeEASY(t *testing.T) {
	byID := run(t, figure2(), 1)
	if byID[3].FirstStart != 20 {
		t.Errorf("job3 start = %d, want 20", byID[3].FirstStart)
	}
}

// In the Figure 2 situation a short job jumps ahead because it
// terminates before the head's reservation, the head starts on time, and
// a job too long for the hole waits for the head.
func TestBackfillBeforeShadow(t *testing.T) {
	byID := run(t, figure2(), 1)
	if byID[3].FirstStart != 20 {
		t.Errorf("job3 start = %d, want 20 (backfilled)", byID[3].FirstStart)
	}
	if byID[2].FirstStart != 100 {
		t.Errorf("job2 start = %d, want 100 (reservation honoured)", byID[2].FirstStart)
	}
	if byID[4].FirstStart != 300 {
		t.Errorf("job4 start = %d, want 300 (after the head)", byID[4].FirstStart)
	}
}

// The second EASY legality condition: a long narrow job may backfill if
// the head leaves processors unused at its start.
func TestBackfillOnExtraNodes(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 3),  // ends at 100
		job.New(2, 10, 200, 200, 2), // head: needs 2, reservation at 100
		job.New(3, 20, 500, 500, 1), // long, but head leaves 2 extra at 100
	}}
	byID := run(t, tr, 1)
	// At t=20: free=1, shadow=100, extra = (1+3)-2 = 2 ≥ 1 → backfill.
	if byID[3].FirstStart != 20 {
		t.Errorf("job3 start = %d, want 20 (extra-nodes rule)", byID[3].FirstStart)
	}
	if byID[2].FirstStart != 100 {
		t.Errorf("job2 start = %d, want 100", byID[2].FirstStart)
	}
}

// Two running jobs release at the head's shadow time. Both releases
// count as free at the head's start, so a long candidate that fits only
// in the processors the second release frees backfills as extra nodes.
func TestTiedReleasesAllCountAsExtraNodes(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 6, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 2),  // releases 2 at 100
		job.New(2, 0, 100, 100, 2),  // also releases 2 at 100
		job.New(3, 10, 100, 100, 4), // head: fits after the first release
		job.New(4, 20, 500, 500, 2), // long: needs the second release's 2
	}}
	byID := run(t, tr, 1)
	// At t=20: free=2, shadow=100, extra = (2+2+2)-4 = 2 ≥ 2 → backfill.
	if byID[4].FirstStart != 20 {
		t.Errorf("job4 start = %d, want 20 (extra nodes from the tied release)", byID[4].FirstStart)
	}
	if byID[3].FirstStart != 100 {
		t.Errorf("job3 start = %d, want 100 (reservation honoured)", byID[3].FirstStart)
	}
}

// Depth 1 must not delay the FIRST queued job, but may delay later ones
// (unlike conservative).
func TestHeadReservationNotDelayed(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 4),
		job.New(2, 10, 100, 100, 4), // head after j1 starts
		job.New(3, 20, 90, 100, 2),  // backfill candidate at t=100? no: ends 20+100>100
	}}
	byID := run(t, tr, 1)
	if byID[2].FirstStart != 100 {
		t.Errorf("job2 start = %d, want 100", byID[2].FirstStart)
	}
	// Job 3 (est 100) can't fit before the head's shadow at t=20
	// (20+100 > 100) and the head leaves 0 extra; it runs after job 2.
	if byID[3].FirstStart != 200 {
		t.Errorf("job3 start = %d, want 200", byID[3].FirstStart)
	}
}

// Early termination lets the head move up (backfilling works on
// estimates, completions on actual run times).
func TestEarlyCompletionPullsQueue(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 30, 100, 4), // estimated 100, actually ends at 30
		job.New(2, 10, 50, 50, 4),
	}}
	byID := run(t, tr, 1)
	if byID[2].FirstStart != 30 {
		t.Errorf("job2 start = %d, want 30 (early completion)", byID[2].FirstStart)
	}
}

func TestUsesEstimatesNotRunTimes(t *testing.T) {
	// Job 3's *estimate* is too long to backfill even though its actual
	// run time would fit — the scheduler cannot know.
	tr := &workload.Trace{Name: "t", Procs: 4, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 3),
		job.New(2, 10, 200, 200, 4), // head, shadow 100
		job.New(3, 20, 10, 500, 1),  // runs 10s but estimated 500s
	}}
	byID := run(t, tr, 1)
	if byID[3].FirstStart == 20 {
		t.Error("job3 backfilled on actual run time: scheduler is cheating")
	}
}

// Depth 2 protects the SECOND queued job too: a backfill legal under
// EASY (it does not delay the head) is refused when it would push job
// 3's reservation back.
//
// Machine of 6: j1 runs [0,100)×4. Head j2 (4 procs) reserves at 100;
// j3 (6 procs) reserves at 200. Candidate j4 (2 procs, 300 s) leaves
// j2's anchor at 100 but would push j3 from 200 to 320.
func TestDeeperDepthProtectsMoreJobs(t *testing.T) {
	tr := &workload.Trace{Name: "t", Procs: 6, Jobs: []*job.Job{
		job.New(1, 0, 100, 100, 4),
		job.New(2, 10, 100, 100, 4),
		job.New(3, 15, 100, 100, 6),
		job.New(4, 20, 300, 300, 2),
	}}
	byID := run(t, tr, 1)
	if byID[4].FirstStart != 20 {
		t.Errorf("depth 1: job4 start = %d, want 20 (only the head is protected)", byID[4].FirstStart)
	}
	if byID[2].FirstStart != 100 {
		t.Errorf("depth 1: head start = %d, want 100", byID[2].FirstStart)
	}
	if byID[3].FirstStart != 320 {
		t.Errorf("depth 1: job3 start = %d, want 320 (delayed by the backfill)", byID[3].FirstStart)
	}

	byID = run(t, tr, 2)
	if byID[4].FirstStart != 300 {
		t.Errorf("depth 2: job4 start = %d, want 300 (refused until after job3)", byID[4].FirstStart)
	}
	if byID[3].FirstStart != 200 {
		t.Errorf("depth 2: job3 start = %d, want 200 (reservation protected)", byID[3].FirstStart)
	}
}

func TestDepthInvariants(t *testing.T) {
	m := workload.SDSC()
	m.Procs = 48
	tr := workload.Generate(m, workload.GenOptions{Jobs: 300, Seed: 8})
	for _, depth := range []int{1, 2, 4, 16} {
		res := sched.Run(tr, depthbf.New(depth), sched.Options{Audit: true, MaxSteps: 10_000_000})
		if err := check.Check(res.Audit, check.Options{ZeroOverhead: true}); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.Suspensions != 0 {
			t.Fatalf("depth %d: non-preemptive policy suspended", depth)
		}
	}
}

func TestNameAndDepth(t *testing.T) {
	s := depthbf.New(4)
	if s.Name() != "DepthBF(4)" || s.Depth() != 4 {
		t.Errorf("Name=%q Depth=%d", s.Name(), s.Depth())
	}
	if name := depthbf.New(1).Name(); name != "NS" {
		t.Errorf("depth 1 Name=%q, want the paper's NS", name)
	}
	if depthbf.New(0).Depth() != 1 {
		t.Error("depth floors at 1")
	}
}
