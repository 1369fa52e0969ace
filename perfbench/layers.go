package main

import "pjs/internal/perf"

// layerDef is one per-layer metric of the traced run. README.md
// records which end-to-end metric, on which workload, each should move.
type layerDef struct {
	name, unit, better string
}

// layerDefs lists the per-layer metrics in report order.
var layerDefs = []layerDef{
	{"sim.run_ms", "ms", "lower"},
	{"policy.tick_ms", "ms", "lower"},
	{"sim.ticks", "count", "lower"},
	{"policy.tick_productive", "count", "higher"},
	{"policy.tick_productive_frac", "ratio", "higher"},
	{"policy.arrival_ms", "ms", "lower"},
	{"policy.completion_ms", "ms", "lower"},
	{"policy.suspend_done_ms", "ms", "lower"},
	{"policy.fault_ms", "ms", "lower"},
	{"probe.queue-scan.calls", "count", "lower"},
	{"probe.queue-scan.ms", "ms", "lower"},
	{"probe.victim-select.calls", "count", "lower"},
	{"probe.victim-select.ms", "ms", "lower"},
	{"probe.backfill-window.calls", "count", "lower"},
	{"probe.backfill-window.ms", "ms", "lower"},
	{"probe.event-dispatch.ms", "ms", "lower"},
	{"driver.self_ms", "ms", "lower"},
	{"driver.ns_per_event", "ns/event", "lower"},
	{"sim.events", "count", "lower"},
	{"obs.observe_ms", "ms", "lower"},
	{"obs.events", "count", "lower"},
	{"sched.emit_ms", "ms", "lower"},
	{"experiment.transient.ms", "ms", "lower"},
	{"experiment.fig35.ms", "ms", "lower"},
	{"experiment.fig38.ms", "ms", "lower"},
	{"experiment.failures.ms", "ms", "lower"},
	{"experiment.replication-ci.ms", "ms", "lower"},
	{"experiment.other.ms", "ms", "lower"},
	{"experiment.events", "count", "lower"},
	{"metrics.summarize_ms", "ms", "lower"},
	{"workload.generate_ms", "ms", "lower"},
	{"audit.entries", "count", "lower"},
	{"audit.overhead_pct", "%", "lower"},
	{"check.verify_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// tracedPasses runs the traced pass, and for an observed workload a
// traced pass without the sinks, checks that tracing perturbed no
// outcome, and derives the per-layer metrics from the spans.
func tracedPasses(b bench, tr *tracer, ref []outcome, rep *report, auditEntries int64,
	reject func(i int, format string, args ...any)) []metric {

	untracedWall := median(rep.passSeconds)
	t := &traced{tr: tr}
	b.prepare(nil)
	start := tr.clock()
	for i := 0; i < b.ops(); i++ {
		o, err := runOp(b, i, t)
		if err != nil {
			reject(i, "traced pass: %v", err)
			continue
		}
		if o.events != ref[i].events || o.finish != ref[i].finish || o.text != ref[i].text {
			reject(i, "traced pass: outcome differs from the untraced run's")
		}
	}
	tracedWall := seconds(tr.clock() - start)
	// The audited twins run without observers, so on an observed
	// workload the audit overhead is taken against an untraced pass
	// without the sinks, which also shows that the sinks perturb nothing.
	var refRun int64
	for _, o := range ref {
		refRun += o.runNs
	}
	if observedWorkload(b) {
		refRun = 0
		for _, u := range []*traced{{unobserved: true}, {tr: tr, unobserved: true}} {
			b.prepare(nil)
			for i := 0; i < b.ops(); i++ {
				o, err := runOp(b, i, u)
				if err != nil || o.events != ref[i].events || o.finish != ref[i].finish {
					reject(i, "pass without sinks: outcome differs from the observed run's (err %v)", err)
				}
				if u.tr == nil {
					refRun += o.runNs
				}
			}
		}
	}
	b.slowdown(ref, tr)

	tot := tr.totals()
	msOf := func(name string) float64 { return ms(tot[name].total) }
	var expEvents int64
	if _, ok := b.(*reproBench); ok {
		for _, o := range ref {
			expEvents += o.events
		}
	}
	emit := 0.0
	if observedWorkload(b) {
		emit = msOf(spanRun) - msOf(spanRunUnobs) - msOf(spanObserve)
	}
	probe := func(ph perf.Phase) (calls, ms float64) {
		return float64(t.probe[ph].Calls), float64(t.probe[ph].Nanos) / 1e6
	}
	qsCalls, qsMs := probe(perf.PhaseQueueScan)
	vsCalls, vsMs := probe(perf.PhaseVictimSelect)
	bwCalls, bwMs := probe(perf.PhaseBackfillWindow)
	_, edMs := probe(perf.PhaseEventDispatch)

	values := map[string]float64{
		"sim.run_ms":                   msOf(spanRun),
		"policy.tick_ms":               msOf(spanTick),
		"sim.ticks":                    float64(t.ticks),
		"policy.tick_productive":       float64(t.productive),
		"policy.tick_productive_frac":  ratio(float64(t.productive), float64(t.ticks)),
		"policy.arrival_ms":            msOf(spanArrival),
		"policy.completion_ms":         msOf(spanCompletion),
		"policy.suspend_done_ms":       msOf(spanSuspendDone),
		"policy.fault_ms":              msOf(spanFault),
		"probe.queue-scan.calls":       qsCalls,
		"probe.queue-scan.ms":          qsMs,
		"probe.victim-select.calls":    vsCalls,
		"probe.victim-select.ms":       vsMs,
		"probe.backfill-window.calls":  bwCalls,
		"probe.backfill-window.ms":     bwMs,
		"probe.event-dispatch.ms":      edMs,
		"driver.self_ms":               ms(tot[spanRun].own),
		"driver.ns_per_event":          ratio(float64(tot[spanRun].own), float64(t.events)),
		"sim.events":                   float64(t.events),
		"obs.observe_ms":               msOf(spanObserve),
		"obs.events":                   float64(t.obsEvents),
		"sched.emit_ms":                emit,
		"experiment.transient.ms":      msOf(spanExperiment + "transient"),
		"experiment.fig35.ms":          msOf(spanExperiment + "fig35"),
		"experiment.fig38.ms":          msOf(spanExperiment + "fig38"),
		"experiment.failures.ms":       msOf(spanExperiment + "failures"),
		"experiment.replication-ci.ms": msOf(spanExperiment + "replication-ci"),
		"experiment.other.ms":          msOf(spanExperiment + "other"),
		"experiment.events":            float64(expEvents),
		"metrics.summarize_ms":         msOf(spanSummarize),
		"workload.generate_ms":         msOf(spanGenerate),
		"audit.entries":                float64(auditEntries),
		"audit.overhead_pct":           100 * ratio(float64(tot[spanAuditRun].total-refRun), float64(refRun)),
		"check.verify_ms":              msOf(spanCheck),
		"trace.overhead_pct":           100 * ratio(tracedWall-untracedWall, untracedWall),
	}
	out := make([]metric, len(layerDefs))
	for i, d := range layerDefs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: no value for per-layer metric " + d.name)
		}
		out[i] = metric{d.name, d.unit, v}
	}
	return out
}

// observedWorkload reports whether any operation attaches obs sinks.
func observedWorkload(b bench) bool {
	sb, ok := b.(*simBench)
	if !ok {
		return false
	}
	for _, op := range sb.list {
		if op.observed {
			return true
		}
	}
	return false
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
