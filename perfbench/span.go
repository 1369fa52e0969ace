package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"pjs/internal/job"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

// span is one timed interval recorded from outside the program: a call
// into a layer. Times are nanoseconds on the tracer's clock; parent is
// the index of the enclosing span, or -1 for a root.
type span struct {
	name       int32
	parent     int32
	start, end int64
}

// tracer keeps every span of a traced run in memory, in the order the
// spans opened. The simulator is single-threaded, so spans nest: a stack
// of open spans gives each new span its parent.
type tracer struct {
	clock perf.Clock
	names []string
	ids   map[string]int32
	spans []span
	open  []int32
}

func newTracer(clock perf.Clock) *tracer {
	return &tracer{clock: clock, ids: map[string]int32{}}
}

// id interns a span name.
func (t *tracer) id(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name int32) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.clock()})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].end = t.clock()
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span called name.
func (t *tracer) do(name string, f func()) {
	s := t.begin(t.id(name))
	defer t.end(s)
	f()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other (spans from
// concurrent callers) or stick out of their parent; only the union of
// their intervals clipped to the parent counts, so no time is
// subtracted twice.
func selfTimes(spans []span) []int64 {
	// Children as linked lists in index order: a traced run holds
	// millions of leaf spans, so no per-span slice.
	first, last, next := make([]int32, len(spans)), make([]int32, len(spans)), make([]int32, len(spans))
	for i := range spans {
		first[i], last[i], next[i] = -1, -1, -1
	}
	for i, s := range spans {
		if p := s.parent; p >= 0 {
			if last[p] < 0 {
				first[p] = int32(i)
			} else {
				next[last[p]] = int32(i)
			}
			last[p] = int32(i)
		}
	}
	self := make([]int64, len(spans))
	var kids []int32
	for i, s := range spans {
		kids = kids[:0]
		for k := first[i]; k >= 0; k = next[k] {
			kids = append(kids, k)
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, cursor := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, cursor), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTotals sums duration, self time and call count per span name.
type layerTotals struct {
	calls      int64
	total, own int64 // nanoseconds
}

func (t *tracer) totals() map[string]layerTotals {
	self := selfTimes(t.spans)
	out := map[string]layerTotals{}
	for i, s := range t.spans {
		lt := out[t.names[s.name]]
		lt.calls++
		lt.total += s.end - s.start
		lt.own += self[i]
		out[t.names[s.name]] = lt
	}
	return out
}

// write emits the spans as tab-separated lines: index, parent, name,
// start and end in nanoseconds.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "index\tparent\tname\tstart_ns\tend_ns"); err != nil {
		return err
	}
	for i, s := range t.spans {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, t.names[s.name], s.start, s.end); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Span names recorded around the calls into each layer.
const (
	spanGenerate    = "workload.generate"
	spanRun         = "sim.run"
	spanRunUnobs    = "sim.run.unobserved"
	spanSummarize   = "metrics.summarize"
	spanRender      = "obs.render"
	spanObserve     = "obs.observe"
	spanAuditRun    = "audit.run"
	spanCheck       = "check.verify"
	spanArrival     = "policy.arrival"
	spanCompletion  = "policy.completion"
	spanSuspendDone = "policy.suspend_done"
	spanTick        = "policy.tick"
	spanFault       = "policy.fault"
	spanExperiment  = "experiment."
)

// hooked is a delegating sched.Scheduler that records a span around
// every policy hook. A hook span includes the Env primitives the hook
// calls. It also classifies each tick: a tick is productive when the
// free-unclaimed processor count, the busy count or the pending-start
// count changed across the call.
type hooked struct {
	inner sched.Scheduler
	env   *sched.Env
	tr    *tracer

	arrival, completion, suspendDone, tick, fault int32

	ticks, productive int64
}

func newHooked(inner sched.Scheduler, tr *tracer) *hooked {
	return &hooked{
		inner: inner, tr: tr,
		arrival:     tr.id(spanArrival),
		completion:  tr.id(spanCompletion),
		suspendDone: tr.id(spanSuspendDone),
		tick:        tr.id(spanTick),
		fault:       tr.id(spanFault),
	}
}

func (h *hooked) Name() string        { return h.inner.Name() }
func (h *hooked) TickInterval() int64 { return h.inner.TickInterval() }

func (h *hooked) Init(env *sched.Env) {
	h.env = env
	h.inner.Init(env)
}

func (h *hooked) OnArrival(j *job.Job) {
	s := h.tr.begin(h.arrival)
	h.inner.OnArrival(j)
	h.tr.end(s)
}

func (h *hooked) OnCompletion(j *job.Job) {
	s := h.tr.begin(h.completion)
	h.inner.OnCompletion(j)
	h.tr.end(s)
}

func (h *hooked) OnSuspendDone(j *job.Job) {
	s := h.tr.begin(h.suspendDone)
	h.inner.OnSuspendDone(j)
	h.tr.end(s)
}

func (h *hooked) OnTick() {
	c := h.env.Cluster
	free, busy, pending := c.FreeUnclaimed(), c.Busy(), h.env.PendingCount()
	s := h.tr.begin(h.tick)
	h.inner.OnTick()
	h.tr.end(s)
	h.ticks++
	if c.FreeUnclaimed() != free || c.Busy() != busy || h.env.PendingCount() != pending {
		h.productive++
	}
}

func (h *hooked) OnFailure(p int, requeued []*job.Job) {
	s := h.tr.begin(h.fault)
	h.inner.OnFailure(p, requeued)
	h.tr.end(s)
}

func (h *hooked) OnRepair(p int) {
	s := h.tr.begin(h.fault)
	h.inner.OnRepair(p)
	h.tr.end(s)
}

// observed wraps one observer sink with a span per delivered event.
type observed struct {
	sink   sched.Observer
	tr     *tracer
	name   int32
	events int64
}

func (o *observed) Observe(ev sched.Event) {
	s := o.tr.begin(o.name)
	o.sink.Observe(ev)
	o.tr.end(s)
	o.events++
}
