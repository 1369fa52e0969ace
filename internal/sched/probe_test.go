package sched_test

import (
	"testing"

	"pjs"
	"pjs/internal/perf"
	"pjs/internal/sched"
	"pjs/internal/sched/ss"
	"pjs/internal/workload"
)

// probeTrace is a small synthetic workload that exercises every
// instrumented phase under SS: queue scans on each event, victim
// selection in the tick-driven preemption routine, event dispatch
// throughout.
func probeTrace() *workload.Trace {
	m := workload.CTC()
	m.OfferedLoad = 1.2 // overload so the preemption routine has victims
	return workload.Generate(m, workload.GenOptions{Jobs: 120, Seed: 7})
}

// TestProbeDoesNotPerturbRun is the determinism acceptance criterion
// for profiling (INV-timetaint): under every registered policy, a run
// with a probe attached must match the unprobed run on the audit log
// and on every checkpoint Snapshot — its event count, virtual time and
// audit-prefix hash. Checkpointing every few events turns the
// watermark hash on, so timing that leaks into the hash is caught as
// well as timing that leaks into an audit entry or a checkpoint. One
// probed run reads a counting clock, so a leak changes the outputs
// deterministically; the other reads the real monotonic clock.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	tr := probeTrace()
	for _, spec := range pjs.SchedulerSpecs() {
		t.Run(spec, func(t *testing.T) {
			run := func(p *perf.Probe) (*sched.Result, []sched.Snapshot) {
				s, err := pjs.NewScheduler(spec)
				if err != nil {
					t.Fatalf("NewScheduler(%q): %v", spec, err)
				}
				var snaps []sched.Snapshot
				res := sched.Run(tr, s, sched.Options{
					Audit: true,
					Probe: p,
					Checkpoint: &sched.CheckpointConfig{Every: 7, Save: func(s sched.Snapshot) error {
						snaps = append(snaps, s)
						return nil
					}},
				})
				return res, snaps
			}
			var reads int64
			counting := perf.NewProbe(func() int64 { reads += 7919; return reads })
			plain, plainSnaps := run(nil)
			if plain.Events == 0 || len(plainSnaps) == 0 {
				t.Fatalf("run processed %d events and saved %d snapshots", plain.Events, len(plainSnaps))
			}
			for _, probe := range []struct {
				name string
				p    *perf.Probe
			}{{"counting clock", counting}, {"monotonic clock", perf.NewProbe(nil)}} {
				res, snaps := run(probe.p)
				if res.Audit.String() != plain.Audit.String() {
					t.Errorf("%s: audit log diverges when a probe is attached:\n%s",
						probe.name, firstDiff(plain.Audit.String(), res.Audit.String()))
				}
				if res.Events != plain.Events {
					t.Errorf("%s: event counts diverge: plain=%d probed=%d", probe.name, plain.Events, res.Events)
				}
				if len(snaps) != len(plainSnaps) {
					t.Fatalf("%s: %d checkpoint snapshots, plain run saved %d", probe.name, len(snaps), len(plainSnaps))
				}
				for i := range snaps {
					if snaps[i] != plainSnaps[i] {
						t.Fatalf("%s: checkpoint %d diverges: plain %+v, probed %+v", probe.name, i, plainSnaps[i], snaps[i])
					}
				}
			}
			if reads == 0 {
				t.Error("the counting probe was never read")
			}
		})
	}
}

// TestProbeObservesAllPhases proves the wiring reaches every phase: a
// probed SS run under overload must record spans for event dispatch,
// queue scans and victim selection (backfill windows belong to the
// backfilling policies and stay idle here).
func TestProbeObservesAllPhases(t *testing.T) {
	p := perf.NewProbe(nil)
	res := sched.Run(probeTrace(), ss.New(ss.Config{SF: 2}), sched.Options{Probe: p})
	s := p.Snapshot()
	for _, ph := range []perf.Phase{perf.PhaseEventDispatch, perf.PhaseQueueScan, perf.PhaseVictimSelect} {
		if s[ph].Calls == 0 {
			t.Errorf("phase %s recorded no spans", ph)
		}
	}
	if s[perf.PhaseEventDispatch].Calls != res.Events {
		t.Errorf("dispatch spans = %d, want one per event (%d)",
			s[perf.PhaseEventDispatch].Calls, res.Events)
	}
	if res.Suspensions == 0 {
		t.Error("overload trace produced no preemptions; victim-select phase untested")
	}
}
