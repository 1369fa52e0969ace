package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pjs/internal/job"
)

// recordingHandler runs every job immediately on arrival, serially on an
// imaginary infinite machine, and records the order of callbacks.
type recordingHandler struct {
	eng    *Engine
	events []string
	ticks  int
}

func (h *recordingHandler) HandleArrival(j *job.Job) {
	h.events = append(h.events, "arrive")
	done := j.Dispatch(h.eng.Now(), 0)
	h.eng.ScheduleCompletion(j, done)
}

func (h *recordingHandler) HandleCompletion(j *job.Job) {
	h.events = append(h.events, "complete")
	j.Complete(h.eng.Now())
	h.eng.JobFinished()
}

func (h *recordingHandler) HandleSuspendDone(j *job.Job) {
	h.events = append(h.events, "suspend-done")
}

func (h *recordingHandler) HandleReadDone(j *job.Job) {
	h.events = append(h.events, "read-done")
}

func (h *recordingHandler) HandleIORetry(j *job.Job) {
	h.events = append(h.events, "io-retry")
}

func (h *recordingHandler) HandleProcFail(p int)   { h.events = append(h.events, "fail") }
func (h *recordingHandler) HandleProcRepair(p int) { h.events = append(h.events, "repair") }

func (h *recordingHandler) HandleTick() { h.ticks++ }

func TestEngineRunsJobsToCompletion(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	j1 := job.New(1, 0, 100, 100, 1)
	j2 := job.New(2, 50, 10, 10, 1)
	e.AddJob(j1)
	e.AddJob(j2)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 100 {
		t.Errorf("end = %d, want 100", end)
	}
	if j1.FinishTime != 100 || j2.FinishTime != 60 {
		t.Errorf("finish times %d,%d want 100,60", j1.FinishTime, j2.FinishTime)
	}
}

func TestCompletionBeforeArrivalAtSameInstant(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1)) // completes at 100
	e.AddJob(job.New(2, 100, 10, 10, 1)) // arrives at 100
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"arrive", "complete", "arrive", "complete"}
	if len(h.events) != len(want) {
		t.Fatalf("events = %v", h.events)
	}
	for i := range want {
		if h.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", h.events, want)
		}
	}
}

func TestTicksFireAtInterval(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 60)
	h.eng = e
	e.AddJob(job.New(1, 0, 600, 600, 1))
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Ticks at 60,120,...,600; the tick at 600 is not delivered because
	// the completion (same time, lower kind) finishes the run first.
	if h.ticks != 9 {
		t.Errorf("ticks = %d, want 9", h.ticks)
	}
}

// A tick re-arms the event it was popped as, so a run's allocations do
// not grow with its tick count.
func TestTicksDoNotAllocate(t *testing.T) {
	run := func(runTime int64) float64 {
		return testing.AllocsPerRun(3, func() {
			h := &recordingHandler{}
			e := New(h, 60)
			h.eng = e
			e.AddJob(job.New(1, 0, runTime, runTime, 1))
			if _, err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
	if short, long := run(600), run(600*1000); long != short {
		t.Errorf("%v allocations over 9,999 ticks, %v over 9: ticks allocate", long, short)
	}
}

func TestNoTicksWhenDisabled(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 600, 600, 1))
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.ticks != 0 {
		t.Errorf("ticks = %d, want 0", h.ticks)
	}
}

// staleHandler preempts the job right after dispatch so that the original
// completion event becomes stale, then re-dispatches.
type staleHandler struct {
	eng         *Engine
	completions int
}

func (h *staleHandler) HandleArrival(j *job.Job) {
	done := j.Dispatch(h.eng.Now(), 0)
	h.eng.ScheduleCompletion(j, done) // will become stale
	j.Preempt(h.eng.Now())
	h.eng.ScheduleSuspendDone(j, h.eng.Now()+5)
}

func (h *staleHandler) HandleCompletion(j *job.Job) {
	h.completions++
	j.Complete(h.eng.Now())
	h.eng.JobFinished()
}

func (h *staleHandler) HandleSuspendDone(j *job.Job) {
	j.SuspendDone()
	done := j.Dispatch(h.eng.Now(), 0)
	h.eng.ScheduleCompletion(j, done)
}

func (h *staleHandler) HandleReadDone(j *job.Job) {}
func (h *staleHandler) HandleIORetry(j *job.Job)  {}
func (h *staleHandler) HandleProcFail(p int)      {}
func (h *staleHandler) HandleProcRepair(p int)    {}
func (h *staleHandler) HandleTick()               {}

func TestStaleCompletionDropped(t *testing.T) {
	h := &staleHandler{}
	e := New(h, 0)
	h.eng = e
	j := job.New(1, 0, 100, 100, 1)
	e.AddJob(j)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.completions != 1 {
		t.Errorf("completions = %d, want exactly 1 (stale dropped)", h.completions)
	}
	if end != 105 { // 5s suspended at t=0, then 100s of work
		t.Errorf("end = %d, want 105", end)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.now = 100
	defer func() {
		if recover() == nil {
			t.Error("expected panic for past completion")
		}
	}()
	e.ScheduleCompletion(job.New(1, 0, 10, 10, 1), 50)
}

func TestMaxStepsReturnsError(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 1) // tick every second, forever-ish
	h.eng = e
	e.AddJob(job.New(1, 0, 1000, 1000, 1))
	e.SetMaxSteps(10)
	if _, err := e.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Errorf("Run error = %v, want ErrMaxSteps", err)
	}
}

// dropHandler ignores arrivals, so the queue drains with the job
// unfinished: Run must report a deadlock instead of looping or lying.
type dropHandler struct{}

func (dropHandler) HandleArrival(*job.Job)     {}
func (dropHandler) HandleCompletion(*job.Job)  {}
func (dropHandler) HandleSuspendDone(*job.Job) {}
func (dropHandler) HandleReadDone(*job.Job)    {}
func (dropHandler) HandleIORetry(*job.Job)     {}
func (dropHandler) HandleProcFail(int)         {}
func (dropHandler) HandleProcRepair(int)       {}
func (dropHandler) HandleTick()                {}

func TestDeadlockReturnsError(t *testing.T) {
	e := New(dropHandler{}, 0)
	e.AddJob(job.New(1, 0, 100, 100, 1))
	if _, err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Run error = %v, want ErrDeadlock", err)
	}
}

// abortHandler aborts the run from inside the first arrival.
type abortHandler struct {
	eng *Engine
	err error
}

func (h *abortHandler) HandleArrival(*job.Job)     { h.eng.Abort(h.err) }
func (h *abortHandler) HandleCompletion(*job.Job)  {}
func (h *abortHandler) HandleSuspendDone(*job.Job) {}
func (h *abortHandler) HandleReadDone(*job.Job)    {}
func (h *abortHandler) HandleIORetry(*job.Job)     {}
func (h *abortHandler) HandleProcFail(int)         {}
func (h *abortHandler) HandleProcRepair(int)       {}
func (h *abortHandler) HandleTick()                {}

func TestAbortStopsRunWithError(t *testing.T) {
	want := errors.New("unfinishable")
	h := &abortHandler{err: want}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	if _, err := e.Run(); !errors.Is(err, want) {
		t.Errorf("Run error = %v, want %v", err, want)
	}
}

// faultHandler records fail/repair deliveries with their times.
type faultHandler struct {
	recordingHandler
	faults []string
}

func (h *faultHandler) HandleProcFail(p int) {
	h.faults = append(h.faults, fmt.Sprintf("fail:%d@%d", p, h.eng.Now()))
}

func (h *faultHandler) HandleProcRepair(p int) {
	h.faults = append(h.faults, fmt.Sprintf("repair:%d@%d", p, h.eng.Now()))
}

func TestProcFailRepairDelivery(t *testing.T) {
	h := &faultHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	e.ScheduleProcFail(3, 10)
	e.ScheduleProcRepair(3, 20)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fail:3@10", "repair:3@20"}
	if len(h.faults) != len(want) || h.faults[0] != want[0] || h.faults[1] != want[1] {
		t.Errorf("faults = %v, want %v", h.faults, want)
	}
}

// readRetryHandler models the transient-fault restart path: dispatch
// schedules a ReadDone, the first ReadDone books a retry, the retry
// re-schedules the read, and the second ReadDone completes the job.
type readRetryHandler struct {
	eng      *Engine
	reads    int
	retries  int
	finished bool
}

func (h *readRetryHandler) HandleArrival(j *job.Job) {
	j.Dispatch(h.eng.Now(), 10)
	h.eng.ScheduleReadDone(j, h.eng.Now()+10)
}

func (h *readRetryHandler) HandleCompletion(j *job.Job) {
	j.Complete(h.eng.Now())
	h.finished = true
	h.eng.JobFinished()
}

func (h *readRetryHandler) HandleSuspendDone(j *job.Job) {}

func (h *readRetryHandler) HandleReadDone(j *job.Job) {
	h.reads++
	if h.reads == 1 {
		j.ExtendRead(5 + 10)
		h.eng.ScheduleIORetry(j, h.eng.Now()+5)
		return
	}
	h.eng.ScheduleCompletion(j, h.eng.Now()+j.Remaining())
}

func (h *readRetryHandler) HandleIORetry(j *job.Job) {
	h.retries++
	h.eng.ScheduleReadDone(j, h.eng.Now()+10)
}

func (h *readRetryHandler) HandleProcFail(p int)   {}
func (h *readRetryHandler) HandleProcRepair(p int) {}
func (h *readRetryHandler) HandleTick()            {}

func TestReadDoneRetryCycle(t *testing.T) {
	h := &readRetryHandler{}
	e := New(h, 0)
	h.eng = e
	j := job.New(1, 0, 100, 100, 1)
	e.AddJob(j)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.reads != 2 || h.retries != 1 || !h.finished {
		t.Errorf("reads=%d retries=%d finished=%v, want 2/1/true", h.reads, h.retries, h.finished)
	}
	// t=0 dispatch; read fails at 10; retry at 15; read done at 25;
	// then 100s of compute.
	if end != 125 {
		t.Errorf("end = %d, want 125", end)
	}
}

// An epoch change (e.g. the job was killed by a processor failure)
// invalidates pending ReadDone and IORetry events.
func TestReadDoneIORetryStaleOnEpochChange(t *testing.T) {
	j := job.New(1, 0, 100, 100, 1)
	j.Dispatch(0, 10)
	evRead := &Event{Kind: ReadDone, Job: j, Epoch: j.Epoch}
	evRetry := &Event{Kind: IORetry, Job: j, Epoch: j.Epoch}
	if stale(evRead) || stale(evRetry) {
		t.Fatal("fresh events must not be stale")
	}
	j.Fail(5)
	if !stale(evRead) || !stale(evRetry) {
		t.Error("events bound to a dead epoch must be stale")
	}
}

func TestHeapOrdering(t *testing.T) {
	var h eventHeap
	rng := rand.New(rand.NewSource(42))
	const n = 500
	times := make([]int64, n)
	for i := range times {
		times[i] = int64(rng.Intn(100))
		h.push(&Event{Time: times[i], Kind: Kind(rng.Intn(4))})
	}
	var prev *Event
	for h.len() > 0 {
		ev := h.pop()
		if prev != nil && eventLess(ev, prev) {
			t.Fatalf("heap order violated: %v after %v", ev, prev)
		}
		prev = ev
	}
}

func TestHeapTieBreakByKindThenSeq(t *testing.T) {
	var h eventHeap
	e := &Engine{}
	e.heap = h
	// Same time, different kinds, inserted in reverse priority order.
	e.push(&Event{Time: 10, Kind: Tick})
	e.push(&Event{Time: 10, Kind: Arrival})
	e.push(&Event{Time: 10, Kind: ProcRepair})
	e.push(&Event{Time: 10, Kind: ProcFail})
	e.push(&Event{Time: 10, Kind: IORetry})
	e.push(&Event{Time: 10, Kind: ReadDone})
	e.push(&Event{Time: 10, Kind: SuspendDone})
	e.push(&Event{Time: 10, Kind: Completion})
	want := []Kind{Completion, SuspendDone, ReadDone, IORetry, ProcFail, ProcRepair, Arrival, Tick}
	for i, k := range want {
		if got := e.heap.pop().Kind; got != k {
			t.Fatalf("pop %d = %v, want %v", i, got, k)
		}
	}
	// Same time and kind: FIFO by insertion.
	a := &Event{Time: 5, Kind: Arrival}
	b := &Event{Time: 5, Kind: Arrival}
	e.push(a)
	e.push(b)
	if e.heap.pop() != a || e.heap.pop() != b {
		t.Error("equal events should pop in insertion order")
	}
}

// Property: the heap pops any random sequence of events in sorted order.
func TestHeapSortProperty(t *testing.T) {
	f := func(ts []int16) bool {
		e := &Engine{}
		for _, ti := range ts {
			e.push(&Event{Time: int64(ti), Kind: Arrival})
		}
		got := make([]int64, 0, len(ts))
		for e.heap.len() > 0 {
			got = append(got, e.heap.pop().Time)
		}
		return sort.SliceIsSorted(got, func(i, k int) bool { return got[i] < got[k] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Completion: "completion", SuspendDone: "suspend-done",
		ReadDone: "read-done", IORetry: "io-retry",
		ProcFail: "proc-fail", ProcRepair: "proc-repair",
		Arrival: "arrival", Tick: "tick",
	}
	for k, w := range names {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
}

// TestRunHonorsCanceledContext: a context canceled before the run
// starts stops it at the first event boundary with a wrapped
// ErrCanceled that also carries the context's own error.
func TestRunHonorsCanceledContext(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	_, err := e.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, should wrap context.Canceled", err)
	}
	if len(h.events) != 0 {
		t.Errorf("canceled-before-start run processed %d events", len(h.events))
	}
}

// TestRunStepHook: the hook sees every processed event exactly once,
// in order, and its error aborts the run.
func TestRunStepHook(t *testing.T) {
	h := &recordingHandler{}
	e := New(h, 0)
	h.eng = e
	e.AddJob(job.New(1, 0, 100, 100, 1))
	e.AddJob(job.New(2, 50, 10, 10, 1))
	var seen []int64
	e.SetStepHook(func(steps int64) error {
		seen = append(seen, steps)
		return nil
	})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != len(h.events) {
		t.Fatalf("hook fired %d times for %d events", len(seen), len(h.events))
	}
	for i, s := range seen {
		if s != int64(i+1) {
			t.Fatalf("hook call %d reported steps=%d, want %d", i, s, i+1)
		}
	}

	// A hook error stops the run and surfaces verbatim.
	h2 := &recordingHandler{}
	e2 := New(h2, 0)
	h2.eng = e2
	e2.AddJob(job.New(1, 0, 100, 100, 1))
	boom := errors.New("stop here")
	e2.SetStepHook(func(steps int64) error {
		if steps == 1 {
			return boom
		}
		return nil
	})
	if _, err := e2.Run(); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the hook's error", err)
	}
	if len(h2.events) != 1 {
		t.Errorf("run continued past the hook error: %d events", len(h2.events))
	}
}
