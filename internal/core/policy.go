// Package core implements the paper's primary contribution: the
// Selective Suspension (SS) preemption policy and its Tunable (TSS)
// variant, as pure decision logic (Section IV). An idle job may preempt
// running jobs whose suspension priority — the expansion factor of
// Eq. 2 — is lower than its own by at least the suspension factor SF.
//
// The policy functions here are independent of the event loop; package
// sched/ss wires them into the simulator. Keeping them pure makes the
// preemption rules directly testable against the paper's claims (e.g.
// the s = (n+2)/(n+1) suspension-count boundary of Section IV-A, see
// package theory).
package core

import (
	"fmt"
	"slices"
	"sort"

	"pjs/internal/job"
)

// LimitSource supplies the TSS per-category preemption-disable limits
// (Section IV-E): preemption of a running job is disabled once its
// xfactor exceeds the limit of its category, which bounds the worst-case
// slowdown. A nil LimitSource disables the mechanism (plain SS).
type LimitSource interface {
	// Limit returns the xfactor ceiling for category c; returns
	// ok=false when no limit is known (e.g. during adaptive warm-up).
	Limit(c job.Category) (limit float64, ok bool)
}

// Policy holds the tunables of the SS/TSS preemption rule.
type Policy struct {
	// SF is the suspension factor: the minimum ratio of the idle job's
	// priority to the running job's priority for preemption (the paper
	// evaluates 1.5, 2 and 5; values below 2 allow repeated swapping
	// of equal jobs, Section IV-A).
	SF float64
	// DisableHalfWidthRule turns off the Section IV-B fairness rule
	// that a fresh idle job may only suspend running jobs at most
	// twice its own width (the rule protects wide jobs from being
	// suspended by narrow ones). The rule never applies to reentry.
	DisableHalfWidthRule bool
	// Limits is the TSS limit table; nil means plain SS.
	Limits LimitSource
	// MaxVictimSuspensions caps how many times a job may be suspended
	// over its lifetime (0 = unlimited). The paper contrasts its
	// suspension-factor control against exactly this mechanism: Chiang
	// et al.'s run-to-completion policy "allows a job to be suspended
	// at most once" (MaxVictimSuspensions = 1), whereas SS controls the
	// *rate* of suspensions without limiting their number.
	MaxVictimSuspensions int
}

// Validate reports whether the policy parameters are usable.
func (p *Policy) Validate() error {
	if p.SF < 1 {
		return fmt.Errorf("core: suspension factor %v < 1 would let lower-priority jobs preempt", p.SF)
	}
	return nil
}

// CanPreempt reports whether idle may suspend the running victim at time
// now. reentry marks a previously suspended idle job trying to reacquire
// its exact processor set; the half-width rule is waived there
// (Section IV-C: "Here we remove the restriction…"), because a wide
// reentering job might otherwise wait for the full completion of a
// narrow job sitting on one of its processors.
func (p *Policy) CanPreempt(now int64, idle, victim *job.Job, reentry bool) bool {
	if p.MaxVictimSuspensions > 0 && victim.Suspensions >= p.MaxVictimSuspensions {
		return false
	}
	if p.Limits != nil {
		// TSS: preemption of a job is disabled when its priority
		// exceeds 1.5× the average slowdown of its category. The
		// scheduler has no oracle for the true run time, so the
		// category is the one implied by the user estimate.
		if lim, ok := p.Limits.Limit(victim.EstimateCategory()); ok && victim.XFactor(now) > lim {
			return false
		}
	}
	if !reentry && !p.DisableHalfWidthRule && victim.Procs > 2*idle.Procs {
		return false
	}
	return idle.XFactor(now) >= p.SF*victim.XFactor(now)
}

// Coverable reports whether the free processors plus every running job
// that idle may preempt under the fresh-job rules (CanPreempt with the
// half-width rule) cover idle's request. It is SelectVictims's
// feasibility test, without sorting or allocating: SelectVictims
// returns ok=false exactly when Coverable is false. Preemption passes
// use it as an order-free dry run to skip passes that would commit
// nothing.
func (p *Policy) Coverable(now int64, idle *job.Job, running []*job.Job, freeProcs int) bool {
	avail := freeProcs
	for _, r := range running {
		if avail >= idle.Procs {
			break
		}
		if r.State == job.Running && p.CanPreempt(now, idle, r, false) {
			avail += r.Procs
		}
	}
	return avail >= idle.Procs
}

// SelectVictims implements the fresh-idle-job branch of the paper's
// pseudocode (suspend_jobs_1): scan running jobs in ascending priority
// collecting preemptible candidates until, together with the free
// processors, they cover the idle job's request; then suspend candidates
// in descending width, largest first, only as many as needed. It returns
// the victims to suspend and ok=false when the request cannot be covered.
//
// running may be in any order and may contain non-Running jobs; both are
// handled here so callers can pass their bookkeeping lists directly.
func (p *Policy) SelectVictims(now int64, idle *job.Job, running []*job.Job, freeProcs int) (victims []*job.Job, ok bool) {
	if freeProcs >= idle.Procs {
		return nil, true // nothing to suspend
	}
	if !p.Coverable(now, idle, running, freeProcs) {
		return nil, false
	}
	// Ascending suspension priority, deterministic ties.
	cands := make([]*job.Job, 0, len(running))
	for _, r := range running {
		if r.State == job.Running {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(i, k int) bool {
		xi, xk := cands[i].XFactor(now), cands[k].XFactor(now)
		if xi != xk {
			return xi < xk
		}
		return cands[i].ID < cands[k].ID
	})
	// Coverable guarantees the scan reaches the request.
	avail := freeProcs
	chosen := cands[:0]
	for _, v := range cands {
		if avail >= idle.Procs {
			break
		}
		if !p.CanPreempt(now, idle, v, false) {
			continue
		}
		chosen = append(chosen, v)
		avail += v.Procs
	}
	// Largest width first; suspend only until the request is covered.
	sort.SliceStable(chosen, func(i, k int) bool {
		if chosen[i].Procs != chosen[k].Procs {
			return chosen[i].Procs > chosen[k].Procs
		}
		return chosen[i].ID < chosen[k].ID
	})
	avail = freeProcs
	for _, v := range chosen {
		if avail >= idle.Procs {
			break
		}
		victims = append(victims, v)
		avail += v.Procs
	}
	return victims, true
}

// ReentryBlocked classifies one processor of a reentering job's
// remembered set.
type ReentryBlocked int

const (
	// ReentryFree: the processor is available to the reentering job.
	ReentryFree ReentryBlocked = iota
	// ReentryPreemptible: the processor is held by a running job the
	// policy allows suspending.
	ReentryPreemptible
	// ReentryHard: the processor is held by a job that cannot be
	// preempted (policy refusal, or a non-running holder).
	ReentryHard
)

// ReentryClassifier reports the status of one processor of a
// reentering job's remembered set and, for preemptible ones, its holder.
type ReentryClassifier func(proc int) (ReentryBlocked, *job.Job)

// SelectReentryVictims implements the already_suspended branch
// (suspend_jobs_2): the idle job needs exactly its remembered processor
// set back, so every processor must be either free or held by a running
// job that the SF condition (without the half-width rule) allows
// suspending. classify reports each processor's status and, for
// preemptible ones, its holder. It returns the distinct victims and
// ok=false if any processor is hard-blocked.
func (p *Policy) SelectReentryVictims(now int64, idle *job.Job, classify ReentryClassifier) (victims []*job.Job, ok bool) {
	ok = p.reentryScan(now, idle, classify, func(holder *job.Job) {
		if !slices.Contains(victims, holder) {
			victims = append(victims, holder)
		}
	})
	if !ok {
		return nil, false
	}
	return victims, true
}

// ReentryPreempts reports whether SelectReentryVictims would succeed
// with at least one victim — the only reentry outcome that commits a
// preemption — without allocating. Preemption passes use it as an
// order-free dry run; a fully free set is left to the scheduling pass.
func (p *Policy) ReentryPreempts(now int64, idle *job.Job, classify ReentryClassifier) bool {
	preempts := false
	ok := p.reentryScan(now, idle, classify, func(*job.Job) { preempts = true })
	return ok && preempts
}

// reentryScan applies the reentry rule to each processor of idle's
// remembered set in order, calling victim for every preemptible holder
// (repeats included), and reports false at the first processor that
// blocks reentry.
func (p *Policy) reentryScan(now int64, idle *job.Job, classify ReentryClassifier, victim func(*job.Job)) bool {
	for _, proc := range idle.ProcSet {
		status, holder := classify(proc)
		switch status {
		case ReentryFree:
		case ReentryHard:
			return false
		case ReentryPreemptible:
			if holder == nil || holder.State != job.Running || !p.CanPreempt(now, idle, holder, true) {
				return false
			}
			victim(holder)
		}
	}
	return true
}
