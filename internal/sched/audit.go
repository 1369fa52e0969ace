package sched

import (
	"fmt"
	"strings"
)

// Action is the kind of an audit-log entry.
type Action int

const (
	// ActArrive records a job submission.
	ActArrive Action = iota
	// ActStart records a first dispatch onto a processor set.
	ActStart
	// ActResume records a restart of a suspended job.
	ActResume
	// ActSuspendBegin records the start of a suspension write; the job
	// still holds its processors.
	ActSuspendBegin
	// ActSuspendDone records the release of a suspended job's
	// processors.
	ActSuspendDone
	// ActFinish records a completion.
	ActFinish
	// ActKill records an execution abort — a speculative gamble that
	// failed, or a running/suspending job whose processor failed. The
	// job's processors are released and all its work is discarded.
	ActKill
	// ActImageLost records the invalidation of a suspended job whose
	// memory image sat on a failed processor: the job returns to the
	// queue to restart from scratch. No processors are released (a
	// suspended job holds none); Procs records the stranded set.
	ActImageLost
	// ActProcFail records a processor failure (fault injection). The
	// entry carries no job: JobID is -1 and Procs holds the processor.
	ActProcFail
	// ActProcRepair records a failed processor returning to service.
	// Like ActProcFail it carries no job.
	ActProcRepair
	// ActIORetry records a transient suspend-write or restart-read I/O
	// failure for which a backed-off retry was scheduled. The job keeps
	// its processors and state; Procs records the set the operation ran
	// on.
	ActIORetry
	// ActIOExhausted records a transient I/O failure on the operation's
	// final permitted attempt: no further retry is scheduled and the job
	// is about to be killed back to the queue (the ActKill that follows
	// carries the lost work).
	ActIOExhausted
	// ActIODegraded records a processor crossing the windowed transient
	// I/O failure threshold: victim selection stops choosing victims on
	// it until it recovers. Like ActProcFail it carries no job — JobID
	// is -1 and Procs holds the processor.
	ActIODegraded
	// ActIORestored records a degraded processor's failure window
	// clearing: it is eligible for victim placement again. Carries no
	// job.
	ActIORestored
	// ActTick is the periodic scheduler-tick heartbeat. It is emitted
	// to observers only (Event.Job is nil) and is neither hashed nor
	// audited: the audit log records job and processor actions only.
	ActTick
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActArrive:
		return "arrive"
	case ActStart:
		return "start"
	case ActResume:
		return "resume"
	case ActSuspendBegin:
		return "suspend-begin"
	case ActSuspendDone:
		return "suspend-done"
	case ActFinish:
		return "finish"
	case ActKill:
		return "kill"
	case ActImageLost:
		return "image-lost"
	case ActProcFail:
		return "proc-fail"
	case ActProcRepair:
		return "proc-repair"
	case ActIORetry:
		return "io-retry"
	case ActIOExhausted:
		return "io-exhausted"
	case ActIODegraded:
		return "io-degraded"
	case ActIORestored:
		return "io-restored"
	case ActTick:
		return "tick"
	}
	return "unknown"
}

// Entry is one audited scheduler action. Procs is a copy of the job's
// processor set at the time of the action.
type Entry struct {
	Time   int64
	Action Action
	JobID  int
	Procs  []int
	// Static job attributes, so the checker needs no job table.
	Width   int
	RunTime int64
	Submit  int64
}

// AuditLog is the chronological record of all scheduler actions in a
// run, consumed by the invariant checker (package check).
type AuditLog struct {
	Procs   int // machine size
	Entries []Entry
}

// String renders the log one action per line in a canonical form. Two
// runs of a deterministic scheduler over the same trace must render
// byte-identically — the determinism regression test compares exactly
// this.
func (l *AuditLog) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "procs=%d entries=%d\n", l.Procs, len(l.Entries))
	for _, e := range l.Entries {
		fmt.Fprintf(&b, "t=%d %s job=%d width=%d run=%d submit=%d set=%v\n",
			e.Time, e.Action, e.JobID, e.Width, e.RunTime, e.Submit, e.Procs)
	}
	return b.String()
}

// add appends the action ev records, copying its processor set. The
// static job attributes come from ev.Job; a processor-level action
// (ev.Job nil) is logged with JobID -1.
func (l *AuditLog) add(ev Event) {
	ent := Entry{
		Time:   ev.Time,
		Action: ev.Action,
		JobID:  -1,
		Procs:  append([]int(nil), ev.Procs...),
	}
	if j := ev.Job; j != nil {
		ent.JobID, ent.Width, ent.RunTime, ent.Submit = j.ID, j.Procs, j.RunTime, j.SubmitTime
	}
	l.Entries = append(l.Entries, ent)
}
