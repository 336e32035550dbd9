package anonymizer

import (
	"fmt"
	"io"
)

// FileError describes the failure of one file inside a batch. The paper's
// threat model makes anonymization failures catastrophic, so the batch
// APIs are fail-closed: a file that cannot be processed is reported as a
// FileError and withheld, never half-emitted — and one poisoned file must
// not take the rest of the corpus down with it. Name is the batch key of
// the file, Line the 1-based line being processed when the failure struck
// (0 when the failure preceded line processing, e.g. during prescan or
// input reading), and Cause the underlying error; a recovered panic is
// wrapped as a PanicError.
type FileError struct {
	Name  string
	Line  int
	Cause error
}

// Error formats the failure for the operator.
func (e *FileError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("file %s: line %d: %v", e.Name, e.Line, e.Cause)
	}
	return fmt.Sprintf("file %s: %v", e.Name, e.Cause)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *FileError) Unwrap() error { return e.Cause }

// PanicError is the cause recorded when per-file recovery caught a panic.
type PanicError struct {
	Value interface{}
}

// Error formats the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// faultHook, when set, is invoked before each line of a Safe* method's
// processing with the file name and 1-based line number. It exists so
// chaos tests can inject panics at a precise point; production code never
// sets it. Guarded by no lock: set it only from tests that own the
// process.
var faultHook func(name string, line int)

// SetFaultHook installs (or, with nil, removes) the chaos-testing hook.
// The package lives under internal/, so only this repository's tests can
// reach it.
func SetFaultHook(h func(name string, line int)) { faultHook = h }

// recoverFile converts a panic into a *FileError carrying the file name
// and the line the engine was on, and rolls the statistics back to the
// pre-file snapshot so merged batch Stats describe only files that
// completed. Use in a defer around per-file processing.
func (a *Anonymizer) recoverFile(name string, snap Stats, ferr **FileError) {
	if v := recover(); v != nil {
		*ferr = &FileError{Name: name, Line: a.curLine, Cause: &PanicError{Value: v}}
		a.failFileSpan(*ferr)
		a.rollback(snap)
	}
}

// rollback restores a pre-file statistics snapshot and clears the
// engine's per-line scratch, so an aborted file leaves the batch totals
// describing only files that completed. The Session (and a wired
// registry's book) is reconciled immediately: the flush after a
// restore emits negative deltas, backing the aborted file's partial
// counts out of the shared totals so they keep tracking Stats exactly.
// The buffered provenance decisions are discarded with the counters —
// they publish only at a file span's clean end, so a rolled-back file
// leaves no partial ledger records.
func (a *Anonymizer) rollback(snap Stats) {
	a.stats = snap
	a.lineHits = a.lineHits[:0]
	a.pending = a.pending[:0]
	a.flush()
}

// SafeAnonymizeText anonymizes one file like AnonymizeText but fails
// closed instead of failing open: a panic anywhere in the prescan or the
// rewrite is recovered into a *FileError (with the 1-based line the
// engine was processing) and the file's partial statistics are rolled
// back, so a batch caller can report the file and carry on. The mapping
// state an aborted file may have touched only ever adds entries to the
// leak recorder and the IP tree — it can widen later leak reports, never
// narrow them.
func (a *Anonymizer) SafeAnonymizeText(name, text string) (out string, ferr *FileError) {
	snap := a.stats.Clone()
	defer a.recoverFile(name, snap, &ferr)
	a.curFile, a.curLine = name, 0
	a.beginFileSpan(name, "rewrite")
	out = a.AnonymizeText(text)
	a.endFileSpan()
	a.sess.commitLedger()
	return out, nil
}

// SafePrescan runs Prescan with the same panic recovery as
// SafeAnonymizeText (prescan walks attacker-controlled text too).
func (a *Anonymizer) SafePrescan(name, text string) (ferr *FileError) {
	snap := a.stats.Clone()
	defer a.recoverFile(name, snap, &ferr)
	a.curFile, a.curLine = name, 0
	a.beginFileSpan(name, "prescan")
	a.Prescan(text)
	a.endFileSpan()
	a.sess.commitLedger()
	return nil
}

// SafeStreamText streams one file like StreamText but recovers panics
// into a *FileError and wraps I/O errors (failing readers and writers)
// the same way, so stream-corpus callers get one uniform per-file error
// channel. Either way the failed file's partial statistics are rolled
// back: batch Stats describe only files that completed.
func (a *Anonymizer) SafeStreamText(name string, r io.Reader, w io.Writer) (ferr *FileError) {
	snap := a.stats.Clone()
	defer a.recoverFile(name, snap, &ferr)
	a.curFile, a.curLine = name, 0
	a.beginFileSpan(name, "stream")
	if err := a.StreamText(r, w); err != nil {
		fe := &FileError{Name: name, Line: a.curLine, Cause: err}
		a.failFileSpan(fe)
		a.rollback(snap)
		return fe
	}
	a.endFileSpan()
	a.sess.commitLedger()
	return nil
}

// CurrentLine reports the 1-based line the engine is processing (0
// outside a file). Exposed for the confanon batch layer's own recovery.
func (a *Anonymizer) CurrentLine() int { return a.curLine }

// SnapshotStats returns a deep copy of the current statistics. Paired
// with RestoreStats it lets the batch layer roll back a file whose
// failure lies outside the engine (a sink that fails on close after a
// clean stream), keeping batch totals scoped to surviving files.
func (a *Anonymizer) SnapshotStats() Stats { return a.stats.Clone() }

// RestoreStats reinstates a SnapshotStats copy (see SnapshotStats).
func (a *Anonymizer) RestoreStats(s Stats) { a.rollback(s) }
