package sched

import "testing"

// TestNilObserverEmitZeroAllocs pins the cost of running uninstrumented:
// with no audit log, no observer and hashing off, record must return
// before it builds an Event and must not allocate. This test drives
// record directly to prove the recording path itself is free, and
// BenchmarkRunObserverNil (package sched_test) pins the end-to-end
// throughput claim.
func TestNilObserverEmitZeroAllocs(t *testing.T) {
	e := &Env{} // no sinks: record must return before touching the engine
	if n := testing.AllocsPerRun(1000, func() {
		e.record(ActStart, nil, nil, 0)
	}); n != 0 {
		t.Fatalf("record with no audit log or observer allocated %v times per event, want 0", n)
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
