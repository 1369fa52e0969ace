package experiment

import (
	"math"
	"sync"

	"pjs/internal/metrics"
	"pjs/internal/obs"
	"pjs/internal/sched"
	"pjs/internal/workload"
)

// Replication aggregates one metric across independently seeded
// workload replications — the statistical rigor the paper's single-trace
// methodology lacks. Simulations run in parallel, one goroutine per
// seed (the simulator itself is single-threaded and deterministic;
// replications are embarrassingly parallel).
type Replication struct {
	// Values holds the per-seed metric, in seed order.
	Values []float64
	// Mean is the sample mean.
	Mean float64
	// Std is the sample standard deviation.
	Std float64
	// CI95 is the half-width of the 95% confidence interval for the
	// mean (Student's t).
	CI95 float64
}

// Metric extracts a scalar from a finished run.
type Metric func(*metrics.Summary, *sched.Result) float64

// OverallMeanSlowdown is the whole-trace mean bounded slowdown.
func OverallMeanSlowdown(s *metrics.Summary, _ *sched.Result) float64 {
	return s.Overall.MeanSlowdown
}

// LoadedUtilizationPct is the loaded-period utilization in percent.
func LoadedUtilizationPct(_ *metrics.Summary, r *sched.Result) float64 {
	return 100 * r.UtilizationLoaded
}

// Replicate runs scheme sc on model/est/loadPct once per seed (each with
// its own independently generated workload) and aggregates metric.
// With base.Counters set, each seed's runs are counted in a registry of
// their own, merged into base.Counters in seed order once all finish:
// the counts equal a sequential run's, and no registry is shared
// between goroutines.
func Replicate(base Config, seeds []int64, model string, est workload.EstimateMode,
	loadPct int, sc Scheme, oh bool, metric Metric) Replication {

	values := make([]float64, len(seeds))
	regs := make([]*obs.Registry, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		if base.Counters != nil {
			regs[i] = obs.NewRegistry()
			cfg.Counters = regs[i]
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			r := NewRunner(cfg)
			res := r.Result(model, est, loadPct, sc, oh)
			sum := r.Summary(model, est, loadPct, sc, oh, metrics.All)
			values[i] = metric(sum, res)
		}(i, cfg)
	}
	wg.Wait()
	if base.Counters != nil {
		for _, reg := range regs {
			base.Counters.Merge(reg)
		}
	}

	rep := Replication{Values: values}
	n := float64(len(values))
	if n == 0 {
		return rep
	}
	for _, v := range values {
		rep.Mean += v
	}
	rep.Mean /= n
	if len(values) > 1 {
		ss := 0.0
		for _, v := range values {
			d := v - rep.Mean
			ss += d * d
		}
		rep.Std = math.Sqrt(ss / (n - 1))
		rep.CI95 = tCrit95(len(values)-1) * rep.Std / math.Sqrt(n)
	}
	return rep
}

// tCrit95 returns the two-sided 95% Student's t critical value for the
// given degrees of freedom (≥ 30 approximates the normal 1.96).
func tCrit95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}
