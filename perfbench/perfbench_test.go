package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pjs"
	"pjs/internal/perf"
	"pjs/internal/sched"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},   // 0: root
		{name: 1, parent: 0, start: 10, end: 30},    // 1: child of 0
		{name: 1, parent: 0, start: 20, end: 50},    // 2: overlaps 1
		{name: 1, parent: 0, start: 90, end: 120},   // 3: sticks out of 0
		{name: 2, parent: 1, start: 12, end: 18},    // 4: grandchild, nested in 1
		{name: 1, parent: 0, start: 60, end: 70},    // 5: recorded out of start order
		{name: 2, parent: 5, start: 60, end: 70},    // 6: covers all of 5
		{name: 2, parent: -1, start: 200, end: 210}, // 7: second root, leaf
	}
	got := selfTimes(spans)
	// 0 is covered by [10,50) ∪ [60,70) ∪ [90,100) = 60 of 100.
	want := []int64{40, 14, 30, 30, 6, 0, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsAndTotals(t *testing.T) {
	var c perf.ManualClock
	tr := newTracer(c.Clock())
	tr.do("outer", func() {
		c.Advance(5)
		tr.do("inner", func() { c.Advance(7) })
		tr.do("inner", func() { c.Advance(3) })
		c.Advance(1)
	})
	tot := tr.totals()
	if got := tot["outer"]; got.calls != 1 || got.total != 16 || got.own != 6 {
		t.Errorf("outer = %+v, want 1 call, 16 total, 6 own", got)
	}
	if got := tot["inner"]; got.calls != 2 || got.total != 10 || got.own != 10 {
		t.Errorf("inner = %+v, want 2 calls, 10 total, 10 own", got)
	}
	if tr.spans[1].parent != 0 || tr.spans[2].parent != 0 {
		t.Errorf("inner spans' parents = %d, %d, want 0", tr.spans[1].parent, tr.spans[2].parent)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed, so selection must sort
		}
		return v
	}
	for _, tc := range []struct {
		n, p int
		v    float64
		ok   bool
	}{
		{n: 1}, {n: 10}, {n: 19},
		{n: 20, p: 50, v: 10, ok: true},  // rank 10, ten beyond
		{n: 21, p: 52, v: 11, ok: true},  // rank ceil(10.92)=11, ten beyond
		{n: 100, p: 90, v: 90, ok: true}, // rank 90
		{n: 1000, p: 99, v: 990, ok: true},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if p != tc.p || v != tc.v || ok != tc.ok {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v ok=%v", tc.n, p, v, ok, tc.p, tc.v, tc.ok)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// auditTap sits between hooked and the policy and counts the audit
// entries each tick appends.
type auditTap struct {
	sched.Scheduler
	env   *sched.Env
	added int
}

func (a *auditTap) Init(env *sched.Env) { a.env = env; a.Scheduler.Init(env) }

func (a *auditTap) OnTick() {
	before := len(a.env.Audit.Entries)
	a.Scheduler.OnTick()
	a.added = len(a.env.Audit.Entries) - before
}

// tickCheck wraps hooked and compares, tick by tick, its productive
// classification with whether the policy's tick wrote to the audit log.
type tickCheck struct {
	*hooked
	tap                         *auditTap
	ticks, productive, mismatch int
}

func (c *tickCheck) OnTick() {
	before := c.hooked.productive
	c.hooked.OnTick()
	productive := c.hooked.productive > before
	c.ticks++
	if productive {
		c.productive++
	}
	if productive != (c.tap.added > 0) {
		c.mismatch++
	}
}

func TestProductiveTicksMatchAuditLog(t *testing.T) {
	// IS's tick never changes the schedule on this trace; SS and TSS
	// ticks sometimes do.
	for _, tc := range []struct {
		spec           string
		someProductive bool
	}{{"ss:2", true}, {"tss:2", true}, {"is", false}} {
		spec := tc.spec
		trace := generate("SDSC", 400, 1.0, 7)
		inner, err := pjs.NewScheduler(spec)
		if err != nil {
			t.Fatal(err)
		}
		tap := &auditTap{Scheduler: inner}
		c := &tickCheck{hooked: newHooked(tap, newTracer(perf.Monotonic())), tap: tap}
		if _, err := sched.RunChecked(trace, c, sched.Options{Audit: true}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if c.ticks == 0 || c.productive == c.ticks || (c.productive > 0) != tc.someProductive {
			t.Errorf("%s: %d of %d ticks productive", spec, c.productive, c.ticks)
		}
		if c.mismatch != 0 {
			t.Errorf("%s: %d of %d ticks classified unlike the audit log", spec, c.mismatch, c.ticks)
		}
		if int64(c.ticks) != c.hooked.ticks {
			t.Errorf("%s: hooked counted %d ticks, %d delivered", spec, c.hooked.ticks, c.ticks)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// The metric and workload lists here and in BENCHMARK.json must agree.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(f.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(layerDefs))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range f.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if !strings.Contains(string(readme), "| `"+d.name+"` | "+d.unit+" | ") {
			t.Errorf("README.md has no row saying what %s should move", d.name)
		}
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that each metric BENCHMARK.json names prints with its unit,
// that fail_frac is 0, and that the last line is the JSON result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "3", "--seconds", "0.001", "--trace", trace}
			if code := run(args, &stdout, &stderr, 0.02, t.TempDir()); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w, trace, code, stderr.String())
			}
			out := stdout.String()
			want := f.EndToEnd
			if trace == "1" {
				want = f.PerLayer
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			printed := map[string][2]string{} // name -> value, unit
			for _, l := range lines {
				if f := strings.Fields(l); len(f) >= 3 {
					printed[f[0]] = [2]string{f[1], f[2]}
				}
			}
			for _, m := range want {
				if got, ok := printed[m.Name]; !ok || got[1] != m.Unit {
					t.Errorf("%s trace=%s: no %s line with unit %s", w, trace, m.Name, m.Unit)
				}
			}
			if got := printed["fail_frac"]; got != [2]string{"0", "ratio"} {
				t.Errorf("%s trace=%s: fail_frac %v, want 0 ratio:\n%s%s", w, trace, got, out, stderr.String())
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the JSON result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: result %+v", w, trace, res)
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: JSON metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
