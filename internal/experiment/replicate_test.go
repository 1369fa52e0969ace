package experiment

import (
	"math"
	"testing"

	"pjs/internal/obs"
	"pjs/internal/workload"
)

func TestReplicateDeterministic(t *testing.T) {
	base := Config{Jobs: 300}
	seeds := []int64{1, 2, 3}
	a := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)
	b := Replicate(base, seeds, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("seed %d: %v vs %v", seeds[i], a.Values[i], b.Values[i])
		}
	}
	if a.Mean != b.Mean || a.CI95 != b.CI95 {
		t.Error("aggregates differ between identical replications")
	}
}

func TestReplicateSeedsDiffer(t *testing.T) {
	base := Config{Jobs: 300}
	rep := Replicate(base, []int64{1, 2, 3, 4}, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)
	same := true
	for _, v := range rep.Values[1:] {
		if v != rep.Values[0] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical metrics")
	}
	if rep.Std <= 0 || rep.CI95 <= 0 {
		t.Errorf("std=%v ci=%v, want positive", rep.Std, rep.CI95)
	}
}

func TestReplicateAggregates(t *testing.T) {
	// Hand-check the math on a fixed metric via a fake: use one seed
	// (degenerate statistics).
	rep := Replicate(Config{Jobs: 200}, []int64{7}, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)
	if len(rep.Values) != 1 || rep.Mean != rep.Values[0] {
		t.Errorf("single-seed aggregate wrong: %+v", rep)
	}
	if rep.Std != 0 || rep.CI95 != 0 {
		t.Error("single seed has no dispersion")
	}
	empty := Replicate(Config{Jobs: 200}, nil, "SDSC", workload.EstimateAccurate, 100, NS(), false, OverallMeanSlowdown)
	if empty.Mean != 0 || len(empty.Values) != 0 {
		t.Error("empty seeds should aggregate to zero")
	}
}

func TestTCrit95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 4: 2.776, 29: 2.045, 30: 2.042, 100: 1.96}
	for df, want := range cases {
		if got := tCrit95(df); math.Abs(got-want) > 1e-9 {
			t.Errorf("tCrit95(%d) = %v, want %v", df, got, want)
		}
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestLoadedUtilizationMetric(t *testing.T) {
	r := NewRunner(Config{Jobs: 300, Seed: 3})
	res := r.Result("SDSC", workload.EstimateAccurate, 100, NS(), false)
	sum := r.Summary("SDSC", workload.EstimateAccurate, 100, NS(), false, 0)
	got := LoadedUtilizationPct(sum, res)
	if got <= 0 || got > 100 {
		t.Errorf("utilization %% = %v", got)
	}
}

// Replicate's goroutines must not share the caller's counter registry:
// with one attached, the folded counts equal those of the same seeds
// run one after another on a single registry. Under -race a shared
// registry also fails as a data race.
func TestReplicateCountersMatchSequential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	sc := SS(2)
	par := obs.NewRegistry()
	Replicate(Config{Jobs: 200, Counters: par}, seeds, "SDSC", workload.EstimateAccurate, 100, sc, false, OverallMeanSlowdown)
	seq := obs.NewRegistry()
	for _, seed := range seeds {
		NewRunner(Config{Jobs: 200, Seed: seed, Counters: seq}).Result("SDSC", workload.EstimateAccurate, 100, sc, false)
	}
	got, want := par.Snapshot(), seq.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%d counter sets, want %d", len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].String(), want[i].String(); g != w {
			t.Errorf("replicated counters differ from a sequential run:\n%s\nwant:\n%s", g, w)
		}
	}
	if want[0].Arrivals != int64(200*len(seeds)) || want[0].SuspendBegins == 0 {
		t.Errorf("sequential reference looks wrong: %d arrivals, %d suspensions", want[0].Arrivals, want[0].SuspendBegins)
	}
}
