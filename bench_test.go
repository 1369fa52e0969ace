// Benchmarks: one per paper table and figure. Each iteration rebuilds a
// fresh experiment runner over a reduced trace (benchJobs jobs) and
// regenerates the table/figure from scratch, so ns/op is the end-to-end
// cost of reproducing that artifact. Key headline metrics are attached
// with b.ReportMetric. Run the full-scale versions with cmd/pexp.
package pjs

import (
	"testing"

	"pjs/internal/experiment"
	"pjs/internal/job"
	"pjs/internal/metrics"
	"pjs/internal/perf"
	"pjs/internal/workload"
)

// benchJobs scales the benchmark traces; the published tables use
// cmd/pexp's default of 8000.
const benchJobs = 1200

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var events int64
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner(experiment.Config{Jobs: benchJobs, Seed: 1})
		out := e.Run(r)
		if out.Render() == "" {
			b.Fatalf("%s produced no output", id)
		}
		events += r.EventsSimulated()
	}
	reportEventsPerSec(b, events)
}

// reportEventsPerSec attaches simulation throughput — engine events per
// wall-clock second across all iterations — as a custom metric.
func reportEventsPerSec(b *testing.B, events int64) {
	if s := b.Elapsed().Seconds(); s > 0 && events > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}

// Tables.

func BenchmarkTable1Categories(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2DistributionCTC(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3DistributionSDSC(b *testing.B) { benchExperiment(b, "table3") }

func BenchmarkTable4NSSlowdownCTC(b *testing.B) {
	benchExperiment(b, "table4")
	reportOverall(b, "CTC", workload.EstimateAccurate, experiment.NS())
}

func BenchmarkTable5NSSlowdownSDSC(b *testing.B) {
	benchExperiment(b, "table5")
	reportOverall(b, "SDSC", workload.EstimateAccurate, experiment.NS())
}

func BenchmarkTable6CoarseCategories(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7Coarse4WayCTC(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkTable8Coarse4WaySDSC(b *testing.B)   { benchExperiment(b, "table8") }

// reportOverall attaches the overall mean slowdown of a scheme at bench
// scale as a custom metric.
func reportOverall(b *testing.B, model string, est workload.EstimateMode, sc experiment.Scheme) {
	r := experiment.NewRunner(experiment.Config{Jobs: benchJobs, Seed: 1})
	sum := r.Summary(model, est, 100, sc, false, metrics.All)
	b.ReportMetric(sum.Overall.MeanSlowdown, "slowdown")
}

// Theory figures.

func BenchmarkFig4to6TwoTask(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"fig4", "fig5", "fig6"} {
			e, _ := experiment.ByID(id)
			e.Run(nil) // theory figures need no simulations
		}
	}
}

// Figures 7-18: accurate estimates.

func BenchmarkFig7SlowdownCTC(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8TurnaroundCTC(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9SlowdownSDSC(b *testing.B) {
	benchExperiment(b, "fig9")
	// Headline: SS(SF=2) improves the VS row against NS.
	r := experiment.NewRunner(experiment.Config{Jobs: benchJobs, Seed: 1})
	ss := r.Summary("SDSC", workload.EstimateAccurate, 100, experiment.SS(2), false, metrics.All)
	vs := ss.Cat(job.Category{Length: job.VeryShort, Width: job.VeryWide})
	if vs.Count > 0 {
		b.ReportMetric(vs.MeanSlowdown, "VS-VW-slowdown")
	}
}
func BenchmarkFig10TurnaroundSDSC(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11WorstSlowdownCTC(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12WorstTATCTC(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13TSSWorstSlowdownCTC(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14TSSWorstTATCTC(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15WorstSlowdownSDSC(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16WorstTATSDSC(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkFig17TSSWorstSlowdownSDSC(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18TSSWorstTATSDSC(b *testing.B)      { benchExperiment(b, "fig18") }

// Figures 19-30: inaccurate estimates.

func BenchmarkFig19InaccurateSlowdownCTC(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkFig20WellEstimatedSlowdownCTC(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig21BadlyEstimatedSlowdownCTC(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22InaccurateTATCTC(b *testing.B)           { benchExperiment(b, "fig22") }
func BenchmarkFig23WellEstimatedTATCTC(b *testing.B)        { benchExperiment(b, "fig23") }
func BenchmarkFig24BadlyEstimatedTATCTC(b *testing.B)       { benchExperiment(b, "fig24") }
func BenchmarkFig25InaccurateSlowdownSDSC(b *testing.B)     { benchExperiment(b, "fig25") }
func BenchmarkFig26WellEstimatedSlowdownSDSC(b *testing.B)  { benchExperiment(b, "fig26") }
func BenchmarkFig27BadlyEstimatedSlowdownSDSC(b *testing.B) { benchExperiment(b, "fig27") }
func BenchmarkFig28InaccurateTATSDSC(b *testing.B)          { benchExperiment(b, "fig28") }
func BenchmarkFig29WellEstimatedTATSDSC(b *testing.B)       { benchExperiment(b, "fig29") }
func BenchmarkFig30BadlyEstimatedTATSDSC(b *testing.B)      { benchExperiment(b, "fig30") }

// Figures 31-34: suspension overhead.

func BenchmarkFig31OverheadSlowdownCTC(b *testing.B)  { benchExperiment(b, "fig31") }
func BenchmarkFig32OverheadTATCTC(b *testing.B)       { benchExperiment(b, "fig32") }
func BenchmarkFig33OverheadSlowdownSDSC(b *testing.B) { benchExperiment(b, "fig33") }
func BenchmarkFig34OverheadTATSDSC(b *testing.B)      { benchExperiment(b, "fig34") }

// Figures 35-44: load variation.

func BenchmarkFig35UtilizationVsLoadCTC(b *testing.B)  { benchExperiment(b, "fig35") }
func BenchmarkFig36SlowdownVsLoadCTC(b *testing.B)     { benchExperiment(b, "fig36") }
func BenchmarkFig37TATVsLoadCTC(b *testing.B)          { benchExperiment(b, "fig37") }
func BenchmarkFig38UtilizationVsLoadSDSC(b *testing.B) { benchExperiment(b, "fig38") }
func BenchmarkFig39SlowdownVsLoadSDSC(b *testing.B)    { benchExperiment(b, "fig39") }
func BenchmarkFig40TATVsLoadSDSC(b *testing.B)         { benchExperiment(b, "fig40") }
func BenchmarkFig41SlowdownVsUtilCTC(b *testing.B)     { benchExperiment(b, "fig41") }
func BenchmarkFig42TATVsUtilCTC(b *testing.B)          { benchExperiment(b, "fig42") }
func BenchmarkFig43SlowdownVsUtilSDSC(b *testing.B)    { benchExperiment(b, "fig43") }
func BenchmarkFig44TATVsUtilSDSC(b *testing.B)         { benchExperiment(b, "fig44") }

// Ablations (DESIGN.md design choices).

func BenchmarkAblationWidthRule(b *testing.B)      { benchExperiment(b, "ablation-widthrule") }
func BenchmarkAblationAdaptiveLimits(b *testing.B) { benchExperiment(b, "ablation-adaptive") }
func BenchmarkAblationBaselines(b *testing.B)      { benchExperiment(b, "ablation-baselines") }
func BenchmarkAblationMigration(b *testing.B)      { benchExperiment(b, "ablation-migration") }
func BenchmarkAblationGang(b *testing.B)           { benchExperiment(b, "ablation-gang") }
func BenchmarkAblationTSSSeed(b *testing.B)        { benchExperiment(b, "ablation-tss-seed") }
func BenchmarkAblationSpeculative(b *testing.B)    { benchExperiment(b, "ablation-speculative") }
func BenchmarkAblationMaxSuspensions(b *testing.B) { benchExperiment(b, "ablation-maxsusp") }
func BenchmarkAblationDepth(b *testing.B)          { benchExperiment(b, "ablation-depth") }
func BenchmarkKTHSanity(b *testing.B)              { benchExperiment(b, "kth-sanity") }
func BenchmarkAblationVariance(b *testing.B)       { benchExperiment(b, "ablation-variance") }
func BenchmarkAblationEstimates(b *testing.B)      { benchExperiment(b, "ablation-estimates") }
func BenchmarkReplicationCI(b *testing.B)          { benchExperiment(b, "replication-ci") }
func BenchmarkAblationAlloc(b *testing.B)          { benchExperiment(b, "ablation-alloc") }

// Micro-benchmarks of the substrate under each policy: raw simulation
// throughput (jobs scheduled per op) independent of the harness.

func benchScheduler(b *testing.B, spec string) {
	trace := Generate(SDSC(), GenOptions{Jobs: 2000, Seed: 9})
	if _, err := NewScheduler(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		s, _ := NewScheduler(spec)
		res := Simulate(trace, s, Options{})
		events += res.Events
	}
	reportEventsPerSec(b, events)
}

func BenchmarkSimulateFCFS(b *testing.B)         { benchScheduler(b, "fcfs") }
func BenchmarkSimulateEASY(b *testing.B)         { benchScheduler(b, "ns") }
func BenchmarkSimulateConservative(b *testing.B) { benchScheduler(b, "conservative") }
func BenchmarkSimulateIS(b *testing.B)           { benchScheduler(b, "is") }
func BenchmarkSimulateSS2(b *testing.B)          { benchScheduler(b, "ss:2") }
func BenchmarkSimulateTSS2(b *testing.B)         { benchScheduler(b, "tss:2") }
func BenchmarkSimulateSSMig2(b *testing.B)       { benchScheduler(b, "ssmig:2") }
func BenchmarkSimulateGang(b *testing.B)         { benchScheduler(b, "gang") }
func BenchmarkSimulateSpecBF(b *testing.B)       { benchScheduler(b, "spec") }

func BenchmarkGenerateTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(CTC(), GenOptions{Jobs: 5000, Seed: int64(i + 1)})
	}
}

// BenchmarkSimulateSS2Probed is BenchmarkSimulateSS2 with a hot-path
// probe attached — the pair pins the cost of self-profiling itself
// (the delta should stay within noise; spans are two clock reads and
// two integer adds).
func BenchmarkSimulateSS2Probed(b *testing.B) {
	trace := Generate(SDSC(), GenOptions{Jobs: 2000, Seed: 9})
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		s, _ := NewScheduler("ss:2")
		res := Simulate(trace, s, Options{Probe: perf.NewProbe(nil)})
		events += res.Events
	}
	reportEventsPerSec(b, events)
}
