package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pjs/internal/job"
	"pjs/internal/sched"
)

// ev builds a minimal event for the synthetic-stream tests.
func ev(t int64, act sched.Action, j *job.Job) sched.Event {
	return sched.Event{Time: t, Action: act, Job: j}
}

func TestCountersBackfillDetection(t *testing.T) {
	early := job.New(1, 0, 100, 100, 4)
	late := job.New(2, 50, 100, 100, 2)
	c := NewCounters("test", 8)

	c.Observe(ev(0, sched.ActArrive, early))
	c.Observe(ev(50, sched.ActArrive, late))
	// The late arrival starts while the early one still waits: backfill.
	c.Observe(ev(60, sched.ActStart, late))
	// The early job then starts with nothing ahead of it: in order.
	c.Observe(ev(70, sched.ActStart, early))

	if c.Starts != 2 || c.BackfillStarts != 1 {
		t.Fatalf("starts=%d backfills=%d, want 2 and 1", c.Starts, c.BackfillStarts)
	}
}

func TestCountersBackfillSubmitTieBrokenByID(t *testing.T) {
	a := job.New(1, 0, 100, 100, 1)
	b := job.New(2, 0, 100, 100, 1)
	c := NewCounters("test", 8)
	c.Observe(ev(0, sched.ActArrive, a))
	c.Observe(ev(0, sched.ActArrive, b))
	// Same submit time: the lower ID is ahead in FCFS order, so b
	// starting first is a leapfrog and a starting first is not.
	c.Observe(ev(1, sched.ActStart, b))
	if c.BackfillStarts != 1 {
		t.Fatalf("backfills=%d after tie leapfrog, want 1", c.BackfillStarts)
	}
	c.Observe(ev(1, sched.ActStart, a))
	if c.BackfillStarts != 1 {
		t.Fatalf("backfills=%d after in-order start, want still 1", c.BackfillStarts)
	}
}

func TestCountersPreemptionWaves(t *testing.T) {
	mk := func(id int) *job.Job { return job.New(id, 0, 1000, 1000, 2) }
	c := NewCounters("test", 8)
	// Wave one: three victims at t=100.
	c.Observe(ev(100, sched.ActSuspendBegin, mk(1)))
	c.Observe(ev(100, sched.ActSuspendBegin, mk(2)))
	c.Observe(ev(100, sched.ActSuspendBegin, mk(3)))
	// An interleaved non-suspension breaks the chain even at the same t.
	c.Observe(ev(100, sched.ActStart, mk(4)))
	// Wave two: one victim at t=100 again, then one at t=200.
	c.Observe(ev(100, sched.ActSuspendBegin, mk(5)))
	c.Observe(ev(200, sched.ActSuspendBegin, mk(6)))

	if c.PreemptionWaves != 3 {
		t.Errorf("waves=%d, want 3", c.PreemptionWaves)
	}
	if c.MaxChainDepth != 3 {
		t.Errorf("max chain=%d, want 3", c.MaxChainDepth)
	}
}

func TestCountersSuspendedImageBytes(t *testing.T) {
	j := job.New(1, 0, 1000, 1000, 4)
	j.MemPerProc = 100 << 20
	c := NewCounters("test", 8)
	c.Observe(ev(10, sched.ActSuspendBegin, j))
	c.Observe(ev(20, sched.ActSuspendBegin, j))
	if want := int64(2 * 4 * (100 << 20)); c.SuspendedImageBytes != want {
		t.Fatalf("image bytes=%d, want %d", c.SuspendedImageBytes, want)
	}
}

func TestCountersSnapshotMinusDelta(t *testing.T) {
	j := job.New(1, 0, 100, 100, 1)
	c := NewCounters("test", 8)
	c.Observe(ev(0, sched.ActArrive, j))
	c.Observe(ev(1, sched.ActStart, j))
	before := c.Snapshot()
	c.Observe(ev(50, sched.ActFinish, j))
	after := c.Snapshot()

	d := after.Minus(before)
	if d.Arrivals != 0 || d.Starts != 0 || d.Finishes != 1 {
		t.Fatalf("delta arrivals=%d starts=%d finishes=%d, want 0/0/1",
			d.Arrivals, d.Starts, d.Finishes)
	}
	if d.IsZero() {
		t.Fatal("non-empty delta reported IsZero")
	}
	if !after.Minus(after).IsZero() {
		t.Fatal("self-delta not IsZero")
	}

	// DeltaSnapshots drops untouched schedulers and keeps new ones.
	other := NewCounters("other", 8)
	other.Observe(ev(0, sched.ActArrive, j))
	cur := []Counters{after, other.Snapshot()}
	prev := []Counters{after}
	ds := DeltaSnapshots(cur, prev)
	if len(ds) != 1 || ds[0].Scheduler != "other" {
		t.Fatalf("DeltaSnapshots = %+v, want just 'other'", ds)
	}
}

func TestRegistryOrderAndReuse(t *testing.T) {
	r := NewRegistry()
	a := r.For("b-policy", 128)
	b := r.For("a-policy", 128)
	if r.For("b-policy", 64) != a {
		t.Fatal("For did not return the registered instance")
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Scheduler != "b-policy" || snap[1].Scheduler != "a-policy" {
		t.Fatalf("snapshot order %v, want registration order", snap)
	}
	_ = b
}

// Merging registries sums counts per scheduler, keeps the larger chain
// mark, and appends schedulers new to the target in the source's order.
func TestRegistryMerge(t *testing.T) {
	mk := func(id int) *job.Job { return job.New(id, 0, 1000, 1000, 2) }
	dst, src := NewRegistry(), NewRegistry()
	dst.For("ss", 8).Observe(ev(0, sched.ActArrive, mk(1)))
	dst.For("ss", 8).Observe(ev(10, sched.ActSuspendBegin, mk(2)))
	b := src.For("ss", 8)
	b.Observe(ev(0, sched.ActArrive, mk(3)))
	b.Observe(ev(5, sched.ActSuspendBegin, mk(4)))
	b.Observe(ev(5, sched.ActSuspendBegin, mk(5)))
	src.For("ns", 8).Observe(ev(0, sched.ActArrive, mk(6)))

	dst.Merge(src)
	snap := dst.Snapshot()
	if len(snap) != 2 || snap[0].Scheduler != "ss" || snap[1].Scheduler != "ns" {
		t.Fatalf("merged order %v, want ss then ns", snap)
	}
	ss := snap[0]
	if ss.Arrivals != 2 || ss.SuspendBegins != 3 || ss.PreemptionWaves != 2 || ss.MaxChainDepth != 2 {
		t.Errorf("merged ss: arrivals=%d suspends=%d waves=%d chain=%d, want 2/3/2/2",
			ss.Arrivals, ss.SuspendBegins, ss.PreemptionWaves, ss.MaxChainDepth)
	}
	if back := ss.Minus(b.Snapshot()); back.Arrivals != 1 || back.SuspendBegins != 1 {
		t.Errorf("Minus does not undo the merge: arrivals=%d suspends=%d", back.Arrivals, back.SuspendBegins)
	}
}

func TestSamplerCoalescesInstants(t *testing.T) {
	s := NewSampler(8)
	s.Observe(sched.Event{Time: 10, Busy: 2, Queued: 1})
	s.Observe(sched.Event{Time: 10, Busy: 4, Queued: 0}) // same instant: overwrite
	s.Observe(sched.Event{Time: 20, Busy: 4})
	if len(s.Samples) != 2 {
		t.Fatalf("%d samples, want 2 (coalesced)", len(s.Samples))
	}
	if s.Samples[0].Busy != 4 || s.Samples[0].Queued != 0 {
		t.Fatalf("instant 10 kept %+v, want the settled state", s.Samples[0])
	}
}

func TestSamplerWriteCSV(t *testing.T) {
	s := NewSampler(4)
	s.Observe(sched.Event{Time: 0, Busy: 2, Queued: 1, Running: 1, MaxQueuedXFactor: 1.5})
	var b bytes.Buffer
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "time,busy,utilization,queued,running,suspended,max_queued_xfactor\n" +
		"0,2,0.500000,1,1,0,1.500000\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

// failAfter errors on the nth write: the error-propagation probe.
type failAfter struct{ n int }

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSink
	}
	f.n--
	return len(p), nil
}

func TestSamplerWriteCSVPropagatesErrors(t *testing.T) {
	s := NewSampler(4)
	s.Observe(sched.Event{Time: 0, Busy: 1})
	s.Observe(sched.Event{Time: 5, Busy: 2})
	for n := 0; n <= 2; n++ {
		if err := s.WriteCSV(&failAfter{n: n}); !errors.Is(err, errSink) {
			t.Errorf("write failing at chunk %d: err = %v, want errSink", n, err)
		}
	}
}

func TestFanOutDropsNilsAndBroadcasts(t *testing.T) {
	a := NewCounters("a", 8)
	b := NewCounters("b", 8)
	f := NewFanOut(a, nil, b)
	f.Observe(ev(0, sched.ActArrive, job.New(1, 0, 10, 10, 1)))
	if a.Arrivals != 1 || b.Arrivals != 1 {
		t.Fatalf("arrivals a=%d b=%d, want 1 and 1", a.Arrivals, b.Arrivals)
	}
}

func TestCountersStringDeterministic(t *testing.T) {
	build := func() string {
		c := NewCounters("test", 8)
		j := job.New(1, 0, 100, 100, 2)
		c.Observe(ev(0, sched.ActArrive, j))
		c.Observe(ev(1, sched.ActStart, j))
		c.Observe(ev(100, sched.ActFinish, j))
		return c.String()
	}
	if build() != build() {
		t.Fatal("String not deterministic")
	}
	if !strings.Contains(build(), "arrivals=1 starts=1") {
		t.Fatalf("String missing counts:\n%s", build())
	}
}
