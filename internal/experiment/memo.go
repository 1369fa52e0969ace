// On-disk memoization of simulation results, making interrupted sweeps
// resumable: each completed run is persisted as a checksummed memo file
// keyed by everything that determines the run (workload identity,
// scheme, overhead model, job count, seed, step limit). A re-invoked
// sweep recalls finished runs instead of recomputing them. The cache is
// self-validating — a corrupt, truncated or foreign entry fails its
// checksum or key comparison and is silently regenerated; a memo file
// is never trusted into a wrong result.

package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"

	"pjs/internal/ckpt"
	"pjs/internal/job"
	"pjs/internal/sched"
)

// Memo container format identity. Bump memoVersion on any change to
// the memoFile schema, and on any change to a scheduler's behaviour
// (memoKey has no behaviour version), so stale caches regenerate instead
// of loading garbage or silently serving the old policy's results.
// Version 2: NS counts every release at the shadow time as extra nodes,
// and SpecBF computes its shadow the same way.
const (
	memoKind    = "pjsmemo"
	memoVersion = 2
)

// memoKey is everything that determines a run's outcome. It is stored
// inside the memo and compared on load, so a filename collision (or a
// cache directory shared across configurations) can never alias two
// different runs.
type memoKey struct {
	Model    string `json:"model"`
	Est      int    `json:"est"`
	LoadPct  int    `json:"load_pct"`
	Scheme   string `json:"scheme"`
	Overhead bool   `json:"overhead"`
	Jobs     int    `json:"jobs"`
	Seed     int64  `json:"seed"`
	MaxSteps int64  `json:"max_steps"`
	// Fault-injection parameters. Every field is omitempty so the key
	// JSON (and hence the filename hash) of a no-fault run is
	// byte-identical to the pre-fault schema — existing caches stay
	// valid — while two configurations differing in any fault knob get
	// distinct paths and fail the in-file key comparison.
	MTBF           int64   `json:"mtbf,omitempty"`
	MTTR           int64   `json:"mttr,omitempty"`
	FaultSeed      int64   `json:"fault_seed,omitempty"`
	IOWriteFail    float64 `json:"io_write_fail,omitempty"`
	IOReadFail     float64 `json:"io_read_fail,omitempty"`
	IOSeed         int64   `json:"io_seed,omitempty"`
	IOMaxAttempts  int     `json:"io_max_attempts,omitempty"`
	IOBackoffBase  int64   `json:"io_backoff_base,omitempty"`
	IOBackoffCap   int64   `json:"io_backoff_cap,omitempty"`
	IOFailFirst    int     `json:"io_fail_first,omitempty"`
	IOHealthWindow int64   `json:"io_health_window,omitempty"`
	IOHealthThresh int     `json:"io_health_thresh,omitempty"`
}

// memoJob is the serialized form of a finished job: the static
// attributes plus the dynamic outcome fields the metrics layer reads.
type memoJob struct {
	ID           int   `json:"id"`
	Submit       int64 `json:"submit"`
	Run          int64 `json:"run"`
	Estimate     int64 `json:"estimate"`
	Procs        int   `json:"procs"`
	MemPerProc   int64 `json:"mem_per_proc,omitempty"`
	FirstStart   int64 `json:"first_start"`
	Finish       int64 `json:"finish"`
	LastDispatch int64 `json:"last_dispatch"`
	Ran          int64 `json:"ran"`
	PendingRead  int64 `json:"pending_read,omitempty"`
	Suspensions  int   `json:"suspensions,omitempty"`
	Kills        int   `json:"kills,omitempty"`
	Resubmits    int   `json:"resubmits,omitempty"`
}

// memoFile is the JSON payload inside the sealed container.
type memoFile struct {
	Key               memoKey   `json:"key"`
	Trace             string    `json:"trace"`
	Scheduler         string    `json:"scheduler"`
	Utilization       float64   `json:"utilization"`
	UtilizationLoaded float64   `json:"utilization_loaded"`
	Start             int64     `json:"start"`
	End               int64     `json:"end"`
	Suspensions       int       `json:"suspensions"`
	Failures          int       `json:"failures,omitempty"`
	Repairs           int       `json:"repairs,omitempty"`
	FailKills         int       `json:"fail_kills,omitempty"`
	ImagesLost        int       `json:"images_lost,omitempty"`
	LostWorkSeconds   int64     `json:"lost_work_seconds,omitempty"`
	IORetries         int       `json:"io_retries,omitempty"`
	IOExhaustions     int       `json:"io_exhaustions,omitempty"`
	IODegradations    int       `json:"io_degradations,omitempty"`
	IORestores        int       `json:"io_restores,omitempty"`
	Jobs              []memoJob `json:"jobs"`
}

func (r *Runner) memoKey(rk runKey) memoKey {
	return memoKey{
		Model:          rk.tk.model,
		Est:            int(rk.tk.est),
		LoadPct:        rk.tk.loadPct,
		Scheme:         rk.scheme,
		Overhead:       rk.overhead,
		Jobs:           r.cfg.Jobs,
		Seed:           r.cfg.Seed,
		MaxSteps:       r.cfg.MaxSteps,
		MTBF:           r.cfg.Faults.MTBF,
		MTTR:           r.cfg.Faults.MTTR,
		FaultSeed:      r.cfg.Faults.Seed,
		IOWriteFail:    r.cfg.Transient.WriteFailProb,
		IOReadFail:     r.cfg.Transient.ReadFailProb,
		IOSeed:         r.cfg.Transient.Seed,
		IOMaxAttempts:  r.cfg.Transient.MaxAttempts,
		IOBackoffBase:  r.cfg.Transient.BackoffBase,
		IOBackoffCap:   r.cfg.Transient.BackoffCap,
		IOFailFirst:    r.cfg.Transient.FailFirst,
		IOHealthWindow: r.cfg.Transient.HealthWindow,
		IOHealthThresh: r.cfg.Transient.HealthThreshold,
	}
}

// memoPath builds a human-scannable, collision-safe filename: a
// sanitized key prefix for the operator, a key hash for uniqueness.
func (r *Runner) memoPath(mk memoKey) string {
	keyJSON, err := json.Marshal(mk)
	if err != nil {
		// memoKey is a flat struct of marshalable fields; this cannot
		// fail at runtime and a zero hash would only weaken the name,
		// not correctness (the in-file key check still guards).
		keyJSON = nil
	}
	var b strings.Builder
	for _, c := range mk.Model + "_" + mk.Scheme {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteRune(c)
		case c == ' ', c == '=', c == '.':
			b.WriteRune('-')
		}
	}
	name := b.String() + "_" + hexHash(ckpt.HashBytes(keyJSON)) + ".memo"
	return filepath.Join(r.cfg.MemoDir, name)
}

// hexHash renders a hash as fixed-width hex without fmt (cheap, and
// keeps this file free of format-string noise).
func hexHash(h uint64) string {
	const digits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = digits[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// warnf reports a non-fatal cache problem to the configured sink.
func (r *Runner) warnf(format string, args ...any) {
	if r.cfg.Warnf != nil {
		r.cfg.Warnf(format, args...)
	}
}

// loadMemo recalls a memoized result. Every failure mode — missing
// file, checksum mismatch, version skew, malformed payload, key
// mismatch — is a cache miss (false), never an error: the cache can
// always regenerate.
func (r *Runner) loadMemo(mk memoKey) (*sched.Result, bool) {
	data, err := os.ReadFile(r.memoPath(mk))
	if err != nil {
		return nil, false
	}
	payload, err := ckpt.Open(memoKind, memoVersion, data)
	if err != nil {
		return nil, false
	}
	var m memoFile
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, false
	}
	if m.Key != mk {
		return nil, false
	}
	res := &sched.Result{
		Trace:             m.Trace,
		Scheduler:         m.Scheduler,
		Utilization:       m.Utilization,
		UtilizationLoaded: m.UtilizationLoaded,
		Start:             m.Start,
		End:               m.End,
		Suspensions:       m.Suspensions,
		Failures:          m.Failures,
		Repairs:           m.Repairs,
		FailKills:         m.FailKills,
		ImagesLost:        m.ImagesLost,
		LostWorkSeconds:   m.LostWorkSeconds,
		IORetries:         m.IORetries,
		IOExhaustions:     m.IOExhaustions,
		IODegradations:    m.IODegradations,
		IORestores:        m.IORestores,
		Jobs:              make([]*job.Job, len(m.Jobs)),
	}
	for i, mj := range m.Jobs {
		j := job.New(mj.ID, mj.Submit, mj.Run, mj.Estimate, mj.Procs)
		j.MemPerProc = mj.MemPerProc
		j.State = job.Finished
		j.FirstStart = mj.FirstStart
		j.FinishTime = mj.Finish
		j.LastDispatch = mj.LastDispatch
		j.Ran = mj.Ran
		j.PendingRead = mj.PendingRead
		j.Suspensions = mj.Suspensions
		j.Kills = mj.Kills
		j.Resubmits = mj.Resubmits
		res.Jobs[i] = j
	}
	return res, true
}

// saveMemo persists a completed run atomically. A save failure (full
// disk, permissions) costs only future recomputation, so it warns
// instead of failing the sweep.
func (r *Runner) saveMemo(mk memoKey, res *sched.Result) {
	m := memoFile{
		Key:               mk,
		Trace:             res.Trace,
		Scheduler:         res.Scheduler,
		Utilization:       res.Utilization,
		UtilizationLoaded: res.UtilizationLoaded,
		Start:             res.Start,
		End:               res.End,
		Suspensions:       res.Suspensions,
		Failures:          res.Failures,
		Repairs:           res.Repairs,
		FailKills:         res.FailKills,
		ImagesLost:        res.ImagesLost,
		LostWorkSeconds:   res.LostWorkSeconds,
		IORetries:         res.IORetries,
		IOExhaustions:     res.IOExhaustions,
		IODegradations:    res.IODegradations,
		IORestores:        res.IORestores,
		Jobs:              make([]memoJob, len(res.Jobs)),
	}
	for i, j := range res.Jobs {
		m.Jobs[i] = memoJob{
			ID:           j.ID,
			Submit:       j.SubmitTime,
			Run:          j.RunTime,
			Estimate:     j.Estimate,
			Procs:        j.Procs,
			MemPerProc:   j.MemPerProc,
			FirstStart:   j.FirstStart,
			Finish:       j.FinishTime,
			LastDispatch: j.LastDispatch,
			Ran:          j.Ran,
			PendingRead:  j.PendingRead,
			Suspensions:  j.Suspensions,
			Kills:        j.Kills,
			Resubmits:    j.Resubmits,
		}
	}
	payload, err := json.Marshal(m)
	if err != nil {
		r.warnf("memo encode for %s: %v", res.Scheduler, err)
		return
	}
	path := r.memoPath(mk)
	if err := ckpt.WriteFileAtomic(path, ckpt.Seal(memoKind, memoVersion, payload)); err != nil {
		r.warnf("memo save %s: %v", path, err)
	}
}
