package pjs_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"pjs"
	"pjs/internal/job"
	"pjs/internal/obs"
	"pjs/internal/sched"
)

// TestCountersMatchAuditLog cross-validates the observer path against
// the audit path: for every registered policy, one instrumented audited
// run, then a replay of AuditLog.Entries must reproduce the observer's
// action counts exactly. Both are fed the same Event by one record
// call, so a mismatch means the audit log and the Counters mapping
// disagree about an action (a dropped or double-counted kind).
func TestCountersMatchAuditLog(t *testing.T) {
	trace := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 300, Seed: 7})
	for _, spec := range pjs.SchedulerSpecs() {
		t.Run(spec, func(t *testing.T) {
			s, err := pjs.NewScheduler(spec)
			if err != nil {
				t.Fatalf("NewScheduler(%q): %v", spec, err)
			}
			c := obs.NewCounters(s.Name(), trace.Procs)
			opt := pjs.DiskOverhead()
			opt.Audit = true
			opt.MaxSteps = 10_000_000
			opt.Observer = c
			res := pjs.Simulate(trace, s, opt)

			var want obs.Counters
			for _, e := range res.Audit.Entries {
				switch e.Action {
				case sched.ActArrive:
					want.Arrivals++
				case sched.ActStart:
					want.Starts++
				case sched.ActResume:
					want.Resumes++
				case sched.ActSuspendBegin:
					want.SuspendBegins++
				case sched.ActSuspendDone:
					want.SuspendDones++
				case sched.ActFinish:
					want.Finishes++
				case sched.ActKill:
					want.Kills++
				default:
					t.Fatalf("unexpected audit action %v", e.Action)
				}
			}

			got := c.Snapshot()
			type pair struct {
				name      string
				got, want int64
			}
			for _, p := range []pair{
				{"arrivals", got.Arrivals, want.Arrivals},
				{"starts", got.Starts, want.Starts},
				{"resumes", got.Resumes, want.Resumes},
				{"suspend-begins", got.SuspendBegins, want.SuspendBegins},
				{"suspend-dones", got.SuspendDones, want.SuspendDones},
				{"finishes", got.Finishes, want.Finishes},
				{"kills", got.Kills, want.Kills},
			} {
				if p.got != p.want {
					t.Errorf("%s: observer counted %d %s, audit log has %d",
						spec, p.got, p.name, p.want)
				}
			}
			if got.Arrivals != int64(len(trace.Jobs)) {
				t.Errorf("%s: observer counted %d arrivals, trace has %d jobs",
					spec, got.Arrivals, len(trace.Jobs))
			}
			if got.Finishes != int64(len(trace.Jobs)) {
				t.Errorf("%s: observer counted %d finishes, trace has %d jobs",
					spec, got.Finishes, len(trace.Jobs))
			}
		})
	}
}

// TestInstrumentedRunDeterminism extends the double-run regression to
// every observability artifact: two identical instrumented runs must
// produce byte-identical Perfetto trace JSON, time-series CSV and
// counter dumps. This is what licenses diffing exported artifacts
// across commits as a change detector.
func TestInstrumentedRunDeterminism(t *testing.T) {
	trace := pjs.Generate(pjs.CTC(), pjs.GenOptions{Jobs: 250, Seed: 11})
	for _, spec := range []string{"ns", "ss:2"} {
		t.Run(spec, func(t *testing.T) {
			run := func() (traceJSON, tsCSV, dump string) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				tb := obs.NewTraceBuilder(trace.Procs)
				sm := obs.NewSampler(trace.Procs)
				c := obs.NewCounters(s.Name(), trace.Procs)
				opt := pjs.DiskOverhead()
				opt.MaxSteps = 10_000_000
				opt.Observer = obs.NewFanOut(tb, sm, c)
				pjs.Simulate(trace, s, opt)

				var jb, cb bytes.Buffer
				if err := tb.WriteJSON(&jb); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				if err := sm.WriteCSV(&cb); err != nil {
					t.Fatalf("WriteCSV: %v", err)
				}
				return jb.String(), cb.String(), c.String()
			}
			j1, c1, d1 := run()
			j2, c2, d2 := run()
			if j1 != j2 {
				t.Errorf("%s: trace JSON differs between identical runs (%d vs %d bytes)",
					spec, len(j1), len(j2))
			}
			if c1 != c2 {
				t.Errorf("%s: time-series CSV differs between identical runs:\n%s",
					spec, firstDivergence(c1, c2))
			}
			if d1 != d2 {
				t.Errorf("%s: counter dumps differ between identical runs:\n%s",
					spec, firstDivergence(d1, d2))
			}
			if _, err := obs.ValidateTrace([]byte(j1)); err != nil {
				t.Errorf("%s: exported trace does not validate: %v", spec, err)
			}
		})
	}
}

// observerRun is one instrumented configuration the observer digest
// and the sampler oracle sweep over every registered policy: a clean
// run, MTBF processor faults (failure kills and stranded images) and
// transient I/O faults (retries and exhausted retries).
type observerRun struct {
	name  string
	trace *pjs.Trace
	opt   pjs.Options
}

func observerRuns() []observerRun {
	clean := pjs.DiskOverhead()
	faults := pjs.Options{Faults: pjs.FaultConfig{MTBF: 500 * 3600, MTTR: 2 * 3600, Seed: 17}}
	trans := pjs.DiskOverhead()
	trans.Transient = pjs.TransientFaultConfig{
		WriteFailProb: 0.3, ReadFailProb: 0.3, Seed: 9,
		HealthThreshold: 1, HealthWindow: 1 << 40,
	}
	sdsc := pjs.Generate(pjs.SDSC(), pjs.GenOptions{Jobs: 200, Seed: 21})
	return []observerRun{
		{"clean", pjs.Generate(pjs.CTC(), pjs.GenOptions{Jobs: 250, Seed: 11}), clean},
		{"mtbf", sdsc, faults},
		{"transient", sdsc, trans},
	}
}

// observerDigestFile holds the SHA-256 that TestObserverArtifactDigest
// renders.
const observerDigestFile = "testdata/observer-artifacts.sha256"

// TestObserverArtifactDigest pins every observability artifact across
// commits: the Sampler CSV, TraceBuilder JSON and Counters dump of every
// registered policy under each observerRun, hashed together. The
// double-run tests prove two runs of one binary agree; this proves a
// refactor of the event path did not change what the sinks export.
func TestObserverArtifactDigest(t *testing.T) {
	h := sha256.New()
	for _, r := range observerRuns() {
		for _, spec := range pjs.SchedulerSpecs() {
			s, err := pjs.NewScheduler(spec)
			if err != nil {
				t.Fatalf("NewScheduler(%q): %v", spec, err)
			}
			tb := obs.NewTraceBuilder(r.trace.Procs)
			sm := obs.NewSampler(r.trace.Procs)
			c := obs.NewCounters(s.Name(), r.trace.Procs)
			opt := r.opt
			opt.MaxSteps = 50_000_000
			opt.Observer = obs.NewFanOut(tb, sm, c)
			if _, err := pjs.SimulateChecked(r.trace, s, opt); err != nil {
				t.Fatalf("%s/%s: %v", r.name, spec, err)
			}
			fmt.Fprintf(h, "=== %s %s ===\n", r.name, spec)
			if err := sm.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
			if err := tb.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			io.WriteString(h, c.String())
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	data, err := os.ReadFile(observerDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("observer artifacts changed: digest %s, want %s.\n"+
			"If the change is intended, write the new digest to %s and say so in CHANGES.md.",
			got, want, observerDigestFile)
	}
}

// queueOracle recomputes the sampler's max_queued_xfactor column by
// brute force: at every event it scans every job that has arrived so
// far and takes the largest XFactor among those in state Queued,
// coalescing events of one instant into the last, as the Sampler does.
type queueOracle struct {
	arrived []*job.Job
	times   []int64
	maxXF   []float64
	// Coverage of the requeue paths the sampler must track.
	kills, imagesLost, exhausted int
}

func (o *queueOracle) Observe(ev sched.Event) {
	switch ev.Action {
	case sched.ActArrive:
		o.arrived = append(o.arrived, ev.Job)
	case sched.ActKill:
		o.kills++
	case sched.ActImageLost:
		o.imagesLost++
	case sched.ActIOExhausted:
		o.exhausted++
	}
	m := 0.0
	for _, j := range o.arrived {
		if j.State == job.Queued {
			m = max(m, j.XFactor(ev.Time))
		}
	}
	if n := len(o.times); n > 0 && o.times[n-1] == ev.Time {
		o.maxXF[n-1] = m
		return
	}
	o.times = append(o.times, ev.Time)
	o.maxXF = append(o.maxXF, m)
}

// TestSamplerMaxQueuedXFactorOracle checks the sampler's
// max_queued_xfactor against queueOracle at the end of every instant,
// for every registered policy under each observerRun. Between them the
// runs kill (spec), strand images (MTBF faults) and exhaust I/O retries
// (transient faults), so every path that returns a job to the queue is
// covered; the test fails if one of them never fired.
func TestSamplerMaxQueuedXFactorOracle(t *testing.T) {
	var total queueOracle
	for _, r := range observerRuns() {
		for _, spec := range pjs.SchedulerSpecs() {
			s, err := pjs.NewScheduler(spec)
			if err != nil {
				t.Fatalf("NewScheduler(%q): %v", spec, err)
			}
			sm := obs.NewSampler(r.trace.Procs)
			o := &queueOracle{}
			opt := r.opt
			opt.MaxSteps = 50_000_000
			opt.Observer = obs.NewFanOut(sm, o)
			if _, err := pjs.SimulateChecked(r.trace, s, opt); err != nil {
				t.Fatalf("%s/%s: %v", r.name, spec, err)
			}
			if len(sm.Samples) != len(o.times) {
				t.Fatalf("%s/%s: %d samples, oracle saw %d instants",
					r.name, spec, len(sm.Samples), len(o.times))
			}
			for i, smp := range sm.Samples {
				if smp.Time != o.times[i] || smp.MaxQueuedXFactor != o.maxXF[i] {
					t.Fatalf("%s/%s: sample %d at t=%d has max_queued_xfactor %v, brute force over the queued jobs at t=%d gives %v",
						r.name, spec, i, smp.Time, smp.MaxQueuedXFactor, o.times[i], o.maxXF[i])
				}
			}
			total.kills += o.kills
			total.imagesLost += o.imagesLost
			total.exhausted += o.exhausted
		}
	}
	if total.kills == 0 || total.imagesLost == 0 || total.exhausted == 0 {
		t.Fatalf("requeue paths not covered: %d kills, %d images lost, %d exhausted I/O retries",
			total.kills, total.imagesLost, total.exhausted)
	}
}
