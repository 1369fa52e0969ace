package obs

import (
	"fmt"
	"io"

	"pjs/internal/sched"
)

// Sample is one time-series row: the machine state at the end of one
// virtual instant.
type Sample struct {
	Time             int64
	Busy             int // processors owned by jobs
	Queued           int
	Running          int
	Suspended        int
	MaxQueuedXFactor float64
}

// Sampler records a Sample at every engine event, coalescing events
// that share a virtual instant into the last (settled) state of that
// instant. It implements sched.Observer. The max queued xfactor comes
// from the jobs the sampler has seen queue up, so a sampler attached to
// a resumed run counts only jobs queued after the resume point.
type Sampler struct {
	// Procs is the machine size, the denominator of the utilization
	// column.
	Procs int
	// Samples is the recorded series, strictly increasing in Time.
	Samples []Sample

	queued queue
}

// NewSampler returns an empty sampler for a machine of the given size.
func NewSampler(procs int) *Sampler {
	return &Sampler{Procs: procs}
}

// Observe implements sched.Observer.
func (s *Sampler) Observe(ev sched.Event) {
	s.queued.observe(ev)
	smp := Sample{
		Time:             ev.Time,
		Busy:             ev.Busy,
		Queued:           ev.Queued,
		Running:          ev.Running,
		Suspended:        ev.Suspended,
		MaxQueuedXFactor: s.queued.maxXFactor(ev.Time),
	}
	if n := len(s.Samples); n > 0 && s.Samples[n-1].Time == ev.Time {
		s.Samples[n-1] = smp
		return
	}
	s.Samples = append(s.Samples, smp)
}

// WriteCSV emits the series as CSV. Every write error is propagated:
// a truncated time series must fail loudly, not plot plausibly.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"time,busy,utilization,queued,running,suspended,max_queued_xfactor\n"); err != nil {
		return err
	}
	for _, smp := range s.Samples {
		u := 0.0
		if s.Procs > 0 {
			u = float64(smp.Busy) / float64(s.Procs)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f,%d,%d,%d,%.6f\n",
			smp.Time, smp.Busy, u, smp.Queued, smp.Running, smp.Suspended,
			smp.MaxQueuedXFactor); err != nil {
			return err
		}
	}
	return nil
}
