package workload

import (
	"math"
	"testing"

	"pjs/internal/job"
)

// TestGenerateDeterministic pins INV-seedflow for workload synthesis:
// the trace is a function of the model and GenOptions only. A seed
// mixed with a stack or heap address would still repeat for two calls
// from the same frame, so the second call runs on a fresh goroutine,
// deeper in its stack, after heap churn.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(CTC(), GenOptions{Jobs: 500, Seed: 42})
	var b *Trace
	done := make(chan struct{})
	go func() {
		defer close(done)
		churn := make([][]byte, 64)
		for i := range churn {
			churn[i] = make([]byte, 1024+i)
		}
		var deep func(n int) *Trace
		deep = func(n int) *Trace {
			if n == 0 {
				return Generate(CTC(), GenOptions{Jobs: 500, Seed: 42})
			}
			return deep(n - 1)
		}
		b = deep(37)
	}()
	<-done
	for i := range a.Jobs {
		x, y := a.Jobs[i], b.Jobs[i]
		if x.SubmitTime != y.SubmitTime || x.RunTime != y.RunTime || x.Estimate != y.Estimate ||
			x.Procs != y.Procs || x.MemPerProc != y.MemPerProc {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := Generate(CTC(), GenOptions{Jobs: 500, Seed: 43})
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].RunTime != c.Jobs[i].RunTime {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidates(t *testing.T) {
	for _, m := range []Model{CTC(), SDSC(), KTH()} {
		tr := Generate(m, GenOptions{Jobs: 1000, Seed: 1})
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if tr.Procs != m.Procs {
			t.Errorf("%s: Procs = %d, want %d", m.Name, tr.Procs, m.Procs)
		}
	}
}

// The generated category distribution must match the paper's tables
// within sampling error.
func TestGenerateMatchesMix(t *testing.T) {
	for _, m := range []Model{CTC(), SDSC()} {
		tr := Generate(m, GenOptions{Jobs: 30000, Seed: 7})
		d := tr.DistributionTable()
		for l := job.Length(0); l < job.NumLengths; l++ {
			for w := job.Width(0); w < job.NumWidths; w++ {
				want := m.Mix[l][w]
				got := d[l][w]
				if math.Abs(got-want) > 0.012 {
					t.Errorf("%s %v-%v: got %.3f, want %.3f",
						m.Name, l, w, got, want)
				}
			}
		}
	}
}

func TestGenerateOfferedLoadCalibration(t *testing.T) {
	for _, m := range []Model{CTC(), SDSC(), KTH()} {
		tr := Generate(m, GenOptions{Jobs: 20000, Seed: 5})
		got := tr.OfferedLoad()
		if math.Abs(got-m.OfferedLoad)/m.OfferedLoad > 0.15 {
			t.Errorf("%s: offered load %.3f, want ~%.3f", m.Name, got, m.OfferedLoad)
		}
	}
}

func TestGenerateAccurateEstimates(t *testing.T) {
	tr := Generate(CTC(), GenOptions{Jobs: 500, Seed: 1, Estimates: EstimateAccurate})
	for _, j := range tr.Jobs {
		if j.Estimate != j.RunTime {
			t.Fatalf("job %d: estimate %d != run %d", j.ID, j.Estimate, j.RunTime)
		}
	}
}

func TestGenerateInaccurateEstimates(t *testing.T) {
	tr := Generate(CTC(), GenOptions{Jobs: 8000, Seed: 2, Estimates: EstimateInaccurate})
	well := 0
	for _, j := range tr.Jobs {
		if j.Estimate < j.RunTime {
			t.Fatalf("job %d: estimate below run time", j.ID)
		}
		if j.WellEstimated() {
			well++
		}
	}
	frac := float64(well) / float64(len(tr.Jobs))
	if frac < 0.35 || frac > 0.55 {
		t.Errorf("well-estimated fraction = %.3f, want ~0.45", frac)
	}
}

func TestGenerateWellFractionOverride(t *testing.T) {
	tr := Generate(CTC(), GenOptions{
		Jobs: 6000, Seed: 2, Estimates: EstimateInaccurate, WellFraction: 0.9,
	})
	well := 0
	for _, j := range tr.Jobs {
		if j.WellEstimated() {
			well++
		}
	}
	if frac := float64(well) / float64(len(tr.Jobs)); frac < 0.8 {
		t.Errorf("well fraction = %.3f, want ~0.9", frac)
	}
}

func TestGenerateMemoryRange(t *testing.T) {
	tr := Generate(SDSC(), GenOptions{Jobs: 2000, Seed: 3})
	for _, j := range tr.Jobs {
		if j.MemPerProc < 100<<20 || j.MemPerProc > 1024<<20 {
			t.Fatalf("job %d memory %d outside [100MB,1GB]", j.ID, j.MemPerProc)
		}
	}
}

func TestGenerateWidthRespectsMachine(t *testing.T) {
	m := SDSC() // 128 procs: VW jobs must cap at 128
	tr := Generate(m, GenOptions{Jobs: 5000, Seed: 4})
	sawVW := false
	for _, j := range tr.Jobs {
		if j.Procs > 128 {
			t.Fatalf("job %d wider than machine: %d", j.ID, j.Procs)
		}
		if j.Procs > 32 {
			sawVW = true
		}
	}
	if !sawVW {
		t.Error("no very-wide jobs generated")
	}
}

func TestGeneratePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero jobs": func() { Generate(CTC(), GenOptions{Jobs: 0}) },
		"bad procs": func() { Generate(Model{Name: "x", Mix: CTC().Mix, OfferedLoad: 0.5}, GenOptions{Jobs: 10}) },
		"empty mix": func() { Generate(Model{Name: "x", Procs: 4, OfferedLoad: 0.5}, GenOptions{Jobs: 10}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"CTC", "SDSC", "KTH"} {
		m, ok := ModelByName(name)
		if !ok || m.Name != name {
			t.Errorf("ModelByName(%q) = %v,%v", name, m.Name, ok)
		}
	}
	if _, ok := ModelByName("nope"); ok {
		t.Error("unknown model should not resolve")
	}
}

func TestEstimateModeString(t *testing.T) {
	if EstimateAccurate.String() != "accurate" || EstimateInaccurate.String() != "inaccurate" ||
		EstimateModal.String() != "modal" {
		t.Error("mode names")
	}
}

func TestGenerateModalEstimates(t *testing.T) {
	tr := Generate(SDSC(), GenOptions{Jobs: 4000, Seed: 6, Estimates: EstimateModal})
	modes := map[int64]bool{}
	for _, v := range modalValues {
		modes[v] = true
	}
	distinct := map[int64]bool{}
	for _, j := range tr.Jobs {
		if j.Estimate < j.RunTime {
			t.Fatalf("job %d: estimate below run time", j.ID)
		}
		// Requests beyond the largest mode (48 h) pass through as-is.
		if !modes[j.Estimate] && j.Estimate <= 48*3600 {
			t.Fatalf("job %d: estimate %d is not a modal value", j.ID, j.Estimate)
		}
		if modes[j.Estimate] {
			distinct[j.Estimate] = true
		}
	}
	// Few distinct values, and heavy ties — the Tsafrir signature.
	if len(distinct) > len(modalValues) {
		t.Errorf("distinct estimates = %d", len(distinct))
	}
	if len(distinct) < 5 {
		t.Errorf("suspiciously few distinct estimates: %d", len(distinct))
	}
}

func TestRoundUpModal(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{1, 300}, {300, 300}, {301, 600}, {3599, 3600},
		{48 * 3600, 48 * 3600}, {49 * 3600, 49 * 3600}, // beyond the modes: identity
	}
	for _, c := range cases {
		if got := roundUpModal(c.in); got != c.want {
			t.Errorf("roundUpModal(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
