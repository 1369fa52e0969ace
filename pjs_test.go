package pjs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewSchedulerSpecs(t *testing.T) {
	cases := map[string]string{
		"fcfs":         "FCFS",
		"conservative": "Conservative",
		"cons":         "Conservative",
		"ns":           "NS",
		"easy":         "NS",
		"is":           "IS",
		"ss:2":         "SS(SF=2)",
		"ss:1.5":       "SS(SF=1.5)",
		"tss:2":        "TSS(SF=2)",
		" SS:5 ":       "SS(SF=5)",
		"ssmig:2":      "SS-mig(SF=2)",
		"gang":         "Gang(Q=600s)",
		"gang:300":     "Gang(Q=300s)",
		"spec":         "SpecBF",
		"spec:10":      "SpecBF",
		"depth:4":      "DepthBF(4)",
		"depthbf":      "NS",
	}
	for spec, want := range cases {
		s, err := NewScheduler(spec)
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", spec, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("NewScheduler(%q).Name() = %q, want %q", spec, s.Name(), want)
		}
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	for _, spec := range []string{"", "bogus", "ss:abc", "ss:0.5", "tss:0", "gang:0", "gang:x", "depth:0", "spec:1"} {
		if _, err := NewScheduler(spec); err == nil {
			t.Errorf("NewScheduler(%q) should fail", spec)
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	trace := Generate(SDSC(), GenOptions{Jobs: 300, Seed: 1})
	s, err := NewScheduler("ss:2")
	if err != nil {
		t.Fatal(err)
	}
	res := Simulate(trace, s, Options{MaxSteps: 5_000_000})
	sum := Summarize(res, All)
	if sum.Overall.Count != 300 {
		t.Fatalf("count = %d", sum.Overall.Count)
	}
	if sum.Overall.MeanSlowdown < 1 {
		t.Errorf("slowdown = %v", sum.Overall.MeanSlowdown)
	}
}

func TestNewTSSUsesLimits(t *testing.T) {
	trace := Generate(SDSC(), GenOptions{Jobs: 400, Seed: 2})
	ns, _ := NewScheduler("ns")
	base := Summarize(Simulate(trace, ns, Options{MaxSteps: 5_000_000}), All)
	tss := NewTSS(2, base.SlowdownTable())
	if tss.Name() != "TSS(SF=2)" {
		t.Errorf("Name = %q", tss.Name())
	}
	res := Simulate(trace, tss, Options{MaxSteps: 5_000_000})
	if len(res.Jobs) != 400 {
		t.Fatal("incomplete run")
	}
}

func TestSWFRoundTripViaFacade(t *testing.T) {
	trace := Generate(KTH(), GenOptions{Jobs: 50, Seed: 3})
	var buf bytes.Buffer
	if err := WriteSWF(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf, "kth")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 50 {
		t.Fatalf("jobs = %d", len(back.Jobs))
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	if len(Experiments()) < 45 {
		t.Errorf("registry has %d experiments", len(Experiments()))
	}
	e, ok := ExperimentByID("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	out := e.Run(NewRunner(ExpConfig{Jobs: 100})).Render()
	if !strings.Contains(out, "VS") {
		t.Errorf("table1 output:\n%s", out)
	}
}

func TestModelByNameFacade(t *testing.T) {
	if _, ok := ModelByName("CTC"); !ok {
		t.Error("CTC missing")
	}
	if _, ok := ModelByName("XXX"); ok {
		t.Error("bogus model resolved")
	}
}

func TestDiskOverheadOption(t *testing.T) {
	if DiskOverhead().Overhead == nil {
		t.Error("DiskOverhead returned no model")
	}
}
