package confanon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"confanon/internal/anonymizer"
	"confanon/internal/ipanon"
	"confanon/internal/trace"
)

// This file is the fail-closed batch layer. The *Context APIs below
// process every file under per-file panic recovery (one bad file yields
// one FileError, the rest of the corpus completes), take cancellation
// and deadlines through context.Context, and under Options.Strict
// quarantine a file whose post-anonymization leak report contains
// confirmed (non-false-positive) leaks — recorded, withheld from the
// outputs, never silently published. Every whole-corpus entry point
// runs on one driver (pipeline), so which files are withheld does not
// depend on the worker count. The map-returning forms Corpus and
// ParallelCorpus run the same driver and drop a failed or gated file
// from their result without saying why; only the single-file File is
// fail-open (a panic propagates to the caller).

// FileError identifies the file, line, and cause of one per-file failure.
// It is the internal/anonymizer type re-exported.
type FileError = anonymizer.FileError

// PanicError is the FileError cause recorded when per-file recovery
// caught a panic.
type PanicError = anonymizer.PanicError

// ErrQuarantined is wrapped into errors reported for files withheld by
// strict leak-gating (used by the stream path, where quarantine surfaces
// through the error channel).
var ErrQuarantined = errors.New("quarantined: leak report not clean")

// FileStatus classifies one file's outcome in a CorpusResult.
type FileStatus int

const (
	// FileOK: the file anonymized cleanly; Text holds the output.
	FileOK FileStatus = iota
	// FileFailed: processing failed (panic or I/O); Err holds the cause
	// and no output exists.
	FileFailed
	// FileQuarantined: anonymization completed but strict leak-gating
	// found confirmed leaks in the output; Leaks holds them and the
	// output is withheld.
	FileQuarantined
)

// String names the status for reports.
func (s FileStatus) String() string {
	switch s {
	case FileOK:
		return "ok"
	case FileFailed:
		return "failed"
	case FileQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("FileStatus(%d)", int(s))
}

// FileResult is one file's outcome in a CorpusResult.
type FileResult struct {
	Name   string
	Status FileStatus
	// Text is the anonymized output; set only when Status == FileOK.
	Text string
	// Err is the failure; set only when Status == FileFailed.
	Err *FileError
	// Leaks are the confirmed leaks that triggered quarantine; set only
	// when Status == FileQuarantined.
	Leaks []Leak
}

// Ok reports whether the file anonymized cleanly and may be published.
func (r FileResult) Ok() bool { return r.Status == FileOK }

// CorpusResult is the error-carrying outcome of a batch run: one
// FileResult per input file plus the merged statistics of the files that
// completed (failed files are rolled back out of the totals). Files
// missing from Files were never started (the context was cancelled
// first). Report is the machine-readable run summary: always present on
// a finished result, with the full metric snapshot when Options.Metrics
// wired a registry.
type CorpusResult struct {
	Files  map[string]FileResult
	Stats  Stats
	Report *RunReport
	// Incremental summarizes cache reuse; set only by
	// IncrementalCorpusContext (incremental.go).
	Incremental *IncrementalSummary
}

// Ok reports whether every input file anonymized cleanly.
func (r *CorpusResult) Ok() bool {
	for _, f := range r.Files {
		if !f.Ok() {
			return false
		}
	}
	return true
}

// Outputs returns the publishable files only — exactly the FileOK
// subset. Failed and quarantined files are absent, never half-present.
func (r *CorpusResult) Outputs() map[string]string {
	out := make(map[string]string, len(r.Files))
	for name, f := range r.Files {
		if f.Ok() {
			out[name] = f.Text
		}
	}
	return out
}

// Failed returns the per-file errors, sorted by file name.
func (r *CorpusResult) Failed() []*FileError {
	var errs []*FileError
	for _, f := range r.Files {
		if f.Status == FileFailed {
			errs = append(errs, f.Err)
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Name < errs[j].Name })
	return errs
}

// Quarantined returns the names of leak-gated files, sorted.
func (r *CorpusResult) Quarantined() []string {
	var names []string
	for name, f := range r.Files {
		if f.Status == FileQuarantined {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// confirmedLeaks filters a leak report down to the entries that gate
// emission: everything not classified as a likely false positive.
func confirmedLeaks(report []Leak) []Leak {
	var out []Leak
	for _, l := range report {
		if !l.LikelyFalsePositive {
			out = append(out, l)
		}
	}
	return out
}

// traceCorpus opens the root span of one batch run when a tracer is
// wired (nil otherwise). Every worker the batch Acquires is handed the
// span's ID so its file and stage spans nest under it. nfiles < 0 means
// the file count is unknown up front (stream corpora).
func (a *Anonymizer) traceCorpus(op string, nfiles, workers int) *trace.Span {
	tr := a.prog.opts.Tracer
	if tr == nil {
		return nil
	}
	sp := tr.StartSpan(trace.KindCorpus, op, 0)
	if nfiles >= 0 {
		sp.SetAttr("files", strconv.Itoa(nfiles))
	}
	sp.SetAttr("workers", strconv.Itoa(workers))
	return sp
}

// endCorpus closes a traceCorpus span: failed with the error attached
// when the run ended on a run-fatal error (cancellation, a dead
// iterator), ok otherwise — per-file failures are carried by the file
// spans, not the corpus status.
func (a *Anonymizer) endCorpus(sp *trace.Span, err error) {
	if sp == nil {
		return
	}
	status := trace.StatusOK
	if err != nil {
		status = trace.StatusFailed
		sp.SetAttr("error", err.Error())
	}
	a.prog.opts.Tracer.End(sp, status)
}

// spanID unwraps an optional span's ID (zero for none).
func spanID(sp *trace.Span) trace.SpanID {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// traceCensusFailure publishes a failed file span for a file whose
// parallel census failed. The census runs against muted throwaway
// sessions that never trace, so without this the file would vanish from
// the span tree — and failures are traced, never dropped.
func (a *Anonymizer) traceCensusFailure(sp *trace.Span, ferr *FileError) {
	if sp == nil {
		return
	}
	tr := a.prog.opts.Tracer
	fs := tr.StartSpan(trace.KindFile, ferr.Name, sp.ID)
	fs.SetAttr("op", "census")
	fs.SetAttr("line", strconv.Itoa(ferr.Line))
	fs.AddEvent(tr.Now(), ferr.Cause.Error())
	tr.End(fs, trace.StatusFailed)
}

// sortedNames returns the corpus's file names in sorted order, the
// order every batch phase walks them in.
func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CorpusContext anonymizes a set of files as one network like Corpus,
// but fail-closed: per-file panic recovery, strict leak-gating when
// Options.Strict is set, and cancellation via ctx. It is the batch
// pipeline at one worker (see ParallelCorpusContext): under the shaped
// tree every file is first prescanned in sorted-name order (a file whose
// prescan fails is marked failed and skipped); then every file is
// rewritten, and then every file is gated. On cancellation the
// partial CorpusResult is returned along with ctx's error; files not
// yet started are absent from Files.
func (a *Anonymizer) CorpusContext(ctx context.Context, files map[string]string) (*CorpusResult, error) {
	return a.ParallelCorpusContext(ctx, files, 1)
}

// ParallelCorpusContext anonymizes a corpus across several workers with
// the fail-closed semantics of CorpusContext: one poisoned file yields
// one FileError instead of killing the batch, Options.Strict gates every
// file's emission on its leak report, and ctx cancels the run (workers
// finish their in-flight file, unstarted files stay absent from the
// result). The convenience form of the Anonymizer method: it compiles a
// fresh Program and runs one Session over the corpus.
func ParallelCorpusContext(ctx context.Context, opts Options, files map[string]string, workers int) (*CorpusResult, error) {
	return Compile(opts).NewSession().ParallelCorpusContext(ctx, files, workers)
}

// ParallelCorpusContext anonymizes a corpus across workers goroutines
// sharing this Session, with CorpusContext's fail-closed semantics. The
// outputs, and under Options.Strict the set of quarantined files, are
// the same at every worker count, under both IP schemes.
//
// The run is the batch pipeline: the shaped tree's insertion order is
// fixed first, the files are then rewritten on the worker pool — every
// lookup hits the already-resolved tree, so the output does not depend
// on scheduling — and strict leak-gating runs after all workers finish,
// so every file is gated against the values recorded from the whole
// corpus.
func (a *Anonymizer) ParallelCorpusContext(ctx context.Context, files map[string]string, workers int) (*CorpusResult, error) {
	names := sortedNames(files)
	return a.pipeline(ctx, batchRun{
		op:    "parallel-corpus",
		names: names,
		files: files,
		job: func(wk *anonymizer.Anonymizer, i int) (string, *FileError) {
			return wk.SafeAnonymizeText(names[i], files[names[i]])
		},
	}, workers)
}

// batchRun is what one batch entry point hands the pipeline: the
// corpus, the per-file engine job, and the entry point's own
// bookkeeping. Order fixing, the worker pool, the strict gate and the
// outcome count belong to the pipeline.
type batchRun struct {
	op    string            // corpus span name
	names []string          // the corpus's file names, sorted
	files map[string]string // name → cleartext
	// served maps the files the entry point answers without the engine
	// (incremental cache hits) to their outputs. They skip phases 1 and
	// 2 but are gated and counted like every other file.
	served map[string]string
	// job runs names[i] on a Session worker and returns its output or
	// its failure. Calls for different files run concurrently.
	job func(wk *anonymizer.Anonymizer, i int) (string, *FileError)
	// settle, when set, receives every finished file's final (gated)
	// result in sorted order, before the run report is taken.
	settle func(i int, r FileResult)
}

// pipeline is the one batch driver behind CorpusContext,
// ParallelCorpusContext and IncrementalCorpusContext:
//
//  1. fixOrder fixes the shaped tree's insertion order for every file
//     the engine will touch;
//  2. one pool of workers runs b.job on each of those files that phase
//     1 did not fail;
//  3. after every worker has finished, each file is gated (under
//     Options.Strict) and counted, in sorted-name order.
//
// Gating once, over the finished corpus, checks each file against the
// values recorded from every file, so which files are withheld does not
// depend on the worker count.
func (a *Anonymizer) pipeline(ctx context.Context, b batchRun, workers int) (*CorpusResult, error) {
	if workers < 1 {
		workers = 1
	}
	sp := a.traceCorpus(b.op, len(b.names), workers)
	// done holds each file's outcome before gating; a file absent from
	// it was never started (the run was cancelled first).
	done := make(map[string]FileResult, len(b.names))
	var engine []int
	for i, n := range b.names {
		if text, ok := b.served[n]; ok {
			done[n] = FileResult{Name: n, Status: FileOK, Text: text}
		} else {
			engine = append(engine, i)
		}
	}

	err := a.fixOrder(ctx, b, engine, workers, done, sp)

	// Phase 2, skipped when phase 1 was cut short: the tree's order is
	// then not fixed, so a rewrite would depend on scheduling.
	if err == nil {
		work := make(chan int, len(engine))
		for _, i := range engine {
			if _, failed := done[b.names[i]]; !failed {
				work <- i
			}
		}
		close(work)
		results := make(chan FileResult, len(engine))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk := a.sess.Acquire()
				defer a.sess.Release(wk)
				wk.SetCorpusSpan(spanID(sp))
				for i := range work {
					if ctx.Err() != nil {
						break
					}
					n := b.names[i]
					if out, ferr := b.job(wk, i); ferr != nil {
						results <- FileResult{Name: n, Status: FileFailed, Err: ferr}
					} else {
						results <- FileResult{Name: n, Status: FileOK, Text: out}
					}
				}
			}()
		}
		wg.Wait()
		close(results)
		for r := range results {
			done[r.Name] = r
		}
		err = ctx.Err()
	}

	// Phase 3: gate and count in sorted order, after every worker has
	// published its recorder entries.
	res := &CorpusResult{Files: make(map[string]FileResult, len(done))}
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	wk.SetCorpusSpan(spanID(sp))
	for i, n := range b.names {
		r, started := done[n]
		if !started {
			continue
		}
		if a.strict && r.Status == FileOK {
			if leaks := confirmedLeaks(wk.LeakReport(r.Text)); len(leaks) > 0 {
				r = FileResult{Name: n, Status: FileQuarantined, Leaks: leaks}
			}
		}
		res.Files[n] = r
		a.batch.countFile(r.Status)
		if b.settle != nil {
			b.settle(i, r)
		}
	}

	if err != nil {
		a.batch.countCancel()
	}
	a.endCorpus(sp, err)
	res.Stats = a.Stats()
	res.finishReport(a.reg, a.prog.Packs())
	return res, err
}

// fixOrder is the pipeline's phase 1. Under the shaped tree the mapping
// depends on the order addresses first reach the tree, so it fixes that
// order for the engine files (engine indexes b.names) before any of
// them is rewritten. The reference order is one worker's: every file's
// prescan pins in sorted-name order, then every file's full rewrite
// sequence. One worker produces that order by running it — SafePrescan
// on the real Session here, then its own rewrites in phase 2 — so it
// needs no census. More workers census the files in parallel and replay
// the traces in that order (censusReplay). Under Options.StatelessIP
// every mapping is a pure function of the salt and there is nothing to
// fix. Files that fail are recorded in done. Returns ctx's error if the
// phase was cut short.
func (a *Anonymizer) fixOrder(ctx context.Context, b batchRun, engine []int, workers int, done map[string]FileResult, sp *trace.Span) error {
	if a.prog.opts.StatelessIP || len(engine) == 0 {
		return nil
	}
	names := make([]string, len(engine))
	for j, i := range engine {
		names[j] = b.names[i]
	}
	if workers > 1 {
		return a.censusReplay(ctx, names, b.files, workers, done, sp)
	}
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	wk.SetCorpusSpan(spanID(sp))
	for _, n := range names {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ferr := wk.SafePrescan(n, b.files[n]); ferr != nil {
			done[n] = FileResult{Name: n, Status: FileFailed, Err: ferr}
		}
	}
	return nil
}

// fileCensus is one file's census record: the mapper-call traces of its
// prescan and its full rewrite, captured against a throwaway mapper.
type fileCensus struct {
	pins, full *ipanon.Trace
	pinErr     *FileError
}

// censusReplay runs the shaped-tree census over the named files on
// workers goroutines and replays the recorded mapper-call traces into
// the shared tree in the one-worker order (every file's prescan pins in
// sorted-name order, then every surviving file's full sequence). Files
// whose census failed are recorded failed in done and traced; their
// partial pin traces still replay — exactly what a one-worker run
// leaves behind before aborting. Returns ctx's error if the census was
// cut short, in which case the replay is skipped (only the failures are
// recorded). Callers pass names already sorted.
func (a *Anonymizer) censusReplay(ctx context.Context, names []string, files map[string]string, workers int, done map[string]FileResult, sp *trace.Span) error {
	censuses := make([]fileCensus, len(names))
	work := make(chan int, len(names))
	for i := range names {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					break
				}
				pins, full, pinErr := a.sess.CensusFile(names[i], files[names[i]])
				censuses[i] = fileCensus{pins: pins, full: full, pinErr: pinErr}
			}
		}()
	}
	wg.Wait()
	markFailed := func(i int, ferr *FileError) {
		done[names[i]] = FileResult{Name: names[i], Status: FileFailed, Err: ferr}
		a.traceCensusFailure(sp, ferr)
	}
	if err := ctx.Err(); err != nil {
		for i, c := range censuses {
			if c.pinErr != nil {
				markFailed(i, c.pinErr)
			}
		}
		return err
	}
	for _, c := range censuses {
		a.sess.Replay(c.pins)
	}
	for i, c := range censuses {
		if c.pinErr != nil {
			markFailed(i, c.pinErr)
			continue
		}
		a.sess.Replay(c.full)
	}
	return nil
}

// StreamCorpusContext anonymizes a sequence of files like StreamCorpus,
// but with per-file fault isolation: a panic while rewriting, a failing
// reader, a sink that cannot be opened, and a writer that fails mid-file
// or on close each produce one *FileError for that file, and the run
// moves on to the next file instead of aborting. Under Options.Strict
// each file's output is buffered and leak-gated before a sink is even
// opened; a gated file is reported as a FileError wrapping
// ErrQuarantined and nothing is written for it. The returned slice
// carries the per-file failures (empty = every file clean); the error
// return is reserved for run-fatal conditions — context cancellation or
// a failing next iterator.
func (a *Anonymizer) StreamCorpusContext(
	ctx context.Context,
	next func() (name string, r io.Reader, err error),
	sink func(name string) (io.WriteCloser, error),
) (ferrs []*FileError, rerr error) {
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	sp := a.traceCorpus("stream-corpus", -1, 1)
	defer func() { a.endCorpus(sp, rerr) }()
	wk.SetCorpusSpan(spanID(sp))
	for {
		if err := ctx.Err(); err != nil {
			a.batch.countCancel()
			return ferrs, err
		}
		name, r, err := next()
		if err == io.EOF {
			return ferrs, nil
		}
		if err != nil {
			return ferrs, err
		}
		if ferr := a.streamOne(wk, name, r, sink); ferr != nil {
			if errors.Is(ferr.Cause, ErrQuarantined) {
				a.batch.countFile(FileQuarantined)
			} else {
				a.batch.countFile(FileFailed)
			}
			ferrs = append(ferrs, ferr)
		} else {
			a.batch.countFile(FileOK)
		}
	}
}

// streamOne pushes one file of a stream corpus through the fail-closed
// pipeline. In strict mode the output is buffered and gated before the
// sink is opened, so a quarantined file never touches the destination;
// otherwise the file streams straight through with Stream's memory
// behavior (a mid-file failure can leave an output prefix at the sink —
// every emitted line was fully anonymized, and the FileError tells the
// caller to discard the remnant).
func (a *Anonymizer) streamOne(
	wk *anonymizer.Anonymizer,
	name string, r io.Reader,
	sink func(name string) (io.WriteCloser, error),
) *FileError {
	if a.strict {
		var buf bytes.Buffer
		if ferr := wk.SafeStreamText(name, r, &buf); ferr != nil {
			return ferr
		}
		snap := wk.SnapshotStats()
		if leaks := confirmedLeaks(wk.LeakReport(buf.String())); len(leaks) > 0 {
			return &FileError{
				Name:  name,
				Cause: fmt.Errorf("%w (%d confirmed leaks, first: %s)", ErrQuarantined, len(leaks), leaks[0]),
			}
		}
		w, err := sink(name)
		if err != nil {
			wk.RestoreStats(snap)
			return &FileError{Name: name, Cause: fmt.Errorf("opening sink: %w", err)}
		}
		_, werr := w.Write(buf.Bytes())
		cerr := w.Close()
		if werr != nil {
			wk.RestoreStats(snap)
			return &FileError{Name: name, Cause: werr}
		}
		if cerr != nil {
			wk.RestoreStats(snap)
			return &FileError{Name: name, Cause: cerr}
		}
		return nil
	}

	w, err := sink(name)
	if err != nil {
		return &FileError{Name: name, Cause: fmt.Errorf("opening sink: %w", err)}
	}
	snap := wk.SnapshotStats()
	ferr := wk.SafeStreamText(name, r, w)
	cerr := w.Close()
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		wk.RestoreStats(snap)
		return &FileError{Name: name, Cause: cerr}
	}
	return nil
}
