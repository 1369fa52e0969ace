package sched

import (
	"math/rand"
	"testing"

	"pjs/internal/job"
)

func TestProfileFreeAt(t *testing.T) {
	p := NewProfile(0, 10)
	p.Sub(5, 15, 4)
	cases := []struct {
		t    int64
		want int
	}{{0, 10}, {4, 10}, {5, 6}, {14, 6}, {15, 10}, {100, 10}}
	for _, c := range cases {
		if got := p.FreeAt(c.t); got != c.want {
			t.Errorf("FreeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestProfileSubOverlapping(t *testing.T) {
	p := NewProfile(0, 10)
	p.Sub(0, 10, 3)
	p.Sub(5, 20, 3)
	if got := p.FreeAt(7); got != 4 {
		t.Errorf("FreeAt(7) = %d, want 4", got)
	}
	if got := p.FreeAt(12); got != 7 {
		t.Errorf("FreeAt(12) = %d, want 7", got)
	}
}

func TestProfileSubUnderflowPanics(t *testing.T) {
	p := NewProfile(0, 4)
	p.Sub(0, 10, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected underflow panic")
		}
	}()
	p.Sub(5, 8, 2)
}

func TestProfileFindStartImmediate(t *testing.T) {
	p := NewProfile(100, 8)
	if got := p.FindStart(100, 8, 50); got != 100 {
		t.Errorf("anchor = %d, want 100", got)
	}
}

func TestProfileFindStartAfterRelease(t *testing.T) {
	p := NewProfile(0, 10)
	p.Sub(0, 100, 8) // only 2 free until t=100
	if got := p.FindStart(0, 4, 10); got != 100 {
		t.Errorf("anchor = %d, want 100", got)
	}
	if got := p.FindStart(0, 2, 10); got != 0 {
		t.Errorf("anchor = %d, want 0 (fits in the hole)", got)
	}
}

func TestProfileFindStartHoleTooShort(t *testing.T) {
	p := NewProfile(0, 10)
	p.Sub(0, 50, 6)   // 4 free in [0,50)
	p.Sub(50, 200, 9) // 1 free in [50,200)
	// A 3-proc 60s job cannot use the [0,50) hole (too short) nor
	// [50,200) (too narrow): anchor at 200.
	if got := p.FindStart(0, 3, 60); got != 200 {
		t.Errorf("anchor = %d, want 200", got)
	}
	// A 3-proc 50s job fits the first hole exactly.
	if got := p.FindStart(0, 3, 50); got != 0 {
		t.Errorf("anchor = %d, want 0", got)
	}
}

func TestProfileFindStartRespectsAfter(t *testing.T) {
	p := NewProfile(0, 10)
	if got := p.FindStart(30, 5, 10); got != 30 {
		t.Errorf("anchor = %d, want 30", got)
	}
}

func TestProfileFindStartMidStepAnchor(t *testing.T) {
	p := NewProfile(0, 10)
	p.Sub(0, 100, 8)
	// after=60 inside the constrained step; 2-proc job anchors at 60.
	if got := p.FindStart(60, 2, 1000); got != 60 {
		t.Errorf("anchor = %d, want 60", got)
	}
}

// Property: FindStart returns a window where the profile really has
// enough processors throughout.
func TestProfileFindStartProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		total := 4 + rng.Intn(28)
		p := NewProfile(0, total)
		// A reference dense timeline for cross-checking.
		const horizon = 500
		free := make([]int, horizon)
		for i := range free {
			free[i] = total
		}
		for k := 0; k < 6; k++ {
			procs := 1 + rng.Intn(total)
			start := int64(rng.Intn(300))
			end := start + int64(1+rng.Intn(150))
			ok := true
			for i := start; i < end && i < horizon; i++ {
				if free[i] < procs {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			p.Sub(start, end, procs)
			for i := start; i < end && i < horizon; i++ {
				free[i] -= procs
			}
		}
		procs := 1 + rng.Intn(total)
		dur := int64(1 + rng.Intn(80))
		after := int64(rng.Intn(100))
		anchor := p.FindStart(after, procs, dur)
		if anchor < after {
			t.Fatalf("anchor %d before after %d", anchor, after)
		}
		// Check window feasibility against the dense timeline.
		for i := anchor; i < anchor+dur && i < horizon; i++ {
			if free[i] < procs {
				t.Fatalf("iter %d: anchor %d infeasible at t=%d (%d free, need %d)",
					iter, anchor, i, free[i], procs)
			}
		}
		// Check minimality: no earlier anchor works (sampled).
		for cand := after; cand < anchor; cand += 7 {
			feasible := true
			for i := cand; i < cand+dur; i++ {
				if i < horizon && free[i] < procs {
					feasible = false
					break
				}
			}
			// Beyond the dense horizon the profile may have steps the
			// reference cannot see; only flag clear violations.
			if feasible && cand+dur <= horizon {
				t.Fatalf("iter %d: earlier anchor %d feasible, FindStart said %d",
					iter, cand, anchor)
			}
		}
	}
}

func TestProfileFitsWindowEdges(t *testing.T) {
	p := NewProfile(0, 10)
	p.Sub(50, 100, 8) // 2 free in [50,100)
	cases := []struct {
		start int64
		procs int
		dur   int64
		want  bool
	}{
		{0, 10, 50, true},  // ends exactly where the dip starts
		{0, 10, 51, false}, // one second into the dip
		{49, 3, 1, true},   // last second before the dip
		{60, 2, 1000, true},
		{60, 3, 1, false},
		{100, 10, 5, true}, // starts exactly where the dip ends
	}
	for _, c := range cases {
		if got := p.Fits(c.start, c.procs, c.dur); got != c.want {
			t.Errorf("Fits(%d, %d, %d) = %v, want %v", c.start, c.procs, c.dur, got, c.want)
		}
	}
}

// Property: Fits agrees with a dense per-second timeline.
func TestProfileFitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const horizon = 500
	for iter := 0; iter < 300; iter++ {
		total := 4 + rng.Intn(28)
		p := NewProfile(0, total)
		free := make([]int, horizon)
		for i := range free {
			free[i] = total
		}
		for k := 0; k < 6; k++ {
			procs := 1 + rng.Intn(total)
			start := int64(rng.Intn(300))
			end := start + int64(1+rng.Intn(150))
			if p.Fits(start, procs, end-start) {
				p.Sub(start, end, procs)
				for i := start; i < end; i++ {
					free[i] -= procs
				}
			}
		}
		for q := 0; q < 20; q++ {
			procs := 1 + rng.Intn(total)
			start := int64(rng.Intn(400))
			dur := int64(1 + rng.Intn(horizon-int(start)))
			want := true
			for i := start; i < start+dur; i++ {
				if free[i] < procs {
					want = false
					break
				}
			}
			if got := p.Fits(start, procs, dur); got != want {
				t.Fatalf("iter %d: Fits(%d, %d, %d) = %v, dense timeline says %v",
					iter, start, procs, dur, got, want)
			}
		}
	}
}

// ResetRunning reuses storage and holds each running job's processors
// until its projected end; jobs already past it hold nothing.
func TestProfileResetRunning(t *testing.T) {
	running := []*job.Job{
		{ID: 1, Procs: 3, LastDispatch: 0, Estimate: 100},                  // ends 100
		{ID: 2, Procs: 2, LastDispatch: 20, PendingRead: 10, Estimate: 70}, // ends 100
		{ID: 3, Procs: 4, LastDispatch: 0, Estimate: 40},                   // ends 40 ≤ now
	}
	var p Profile
	p.Reset(0, 1)
	p.Sub(0, 10, 1)
	p.ResetRunning(50, 10, running)
	for _, c := range []struct {
		t    int64
		want int
	}{{50, 5}, {99, 5}, {100, 10}, {1 << 40, 10}} {
		if got := p.FreeAt(c.t); got != c.want {
			t.Errorf("FreeAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2 steps", p.Len())
	}
}
