package sched

import (
	"testing"

	"pjs/internal/job"
	"pjs/internal/sim"
)

// TestNilObserverEmitZeroAllocs pins the cost of running uninstrumented:
// with no audit log and no observer, record must return before it
// builds an Event and must not allocate, both with hashing off and with
// the watermark hash on (a checkpointed or resumed run), where every
// action is folded through mixEntry and mix64 first. This test drives
// record directly to prove the recording path itself is free, and
// BenchmarkRunObserverNil (package sched_test) pins the end-to-end
// throughput claim.
func TestNilObserverEmitZeroAllocs(t *testing.T) {
	j := job.New(7, 0, 600, 600, 3)
	procs := []int{4, 5, 6}
	for _, tc := range []struct {
		name string
		env  *Env
	}{
		// No sinks and no hash: record must return before touching the
		// engine.
		{"hashing off", &Env{}},
		{"hashing on", &Env{hashOn: true, engine: sim.New(nil, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.env
			if n := testing.AllocsPerRun(1000, func() {
				e.record(ActStart, j, procs, 0)
			}); n != 0 {
				t.Fatalf("record with no audit log or observer allocated %v times per event, want 0", n)
			}
			if e.hashOn && e.hashEntries == 0 {
				t.Fatal("hashing on, but record mixed no entries")
			}
		})
	}
}

// countingObserver is the cheapest possible sink: a bare counter.
type countingObserver struct{ n int }

func (c *countingObserver) Observe(ev Event) { c.n += ev.Busy }

// TestObserverEventZeroAllocs proves the Event handoff itself is
// allocation-free: the Event is a value passed to an interface method,
// so no per-event boxing or heap escape happens even with an observer
// attached. (Sinks may of course allocate for their own state; the
// contract is that the engine side adds nothing.)
func TestObserverEventZeroAllocs(t *testing.T) {
	c := &countingObserver{}
	var obs Observer = c
	ev := Event{Time: 42, Action: ActStart, Busy: 3}
	if n := testing.AllocsPerRun(1000, func() {
		obs.Observe(ev)
	}); n != 0 {
		t.Fatalf("Observe handoff allocated %v times per event, want 0", n)
	}
	if c.n == 0 {
		t.Fatal("observer was never invoked")
	}
}
