package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"confanon"
)

// incrementalCheckEvery samples the cli-incremental output check: the
// first op on every unit and every n-th op after that are compared with
// an in-process full run (which costs about as much as the op itself).
const incrementalCheckEvery = 4

// cliArgs builds one confanon invocation over a unit directory.
func cliArgs(cfg config, u *unit, in, state, out string, incremental bool) []string {
	args := []string{"-salt", u.Salt, "-strict", "-workers", strconv.Itoa(cfg.Procs),
		"-state-dir", state, "-leak-report=false", "-in", in, "-out", out}
	if incremental {
		args = append(args, "-incremental")
	}
	return args
}

// traceArgs adds the run report and trace outputs of a traced op.
func traceArgs(args []string, dir string) []string {
	return append(args, "-metrics-out", filepath.Join(dir, "report.json"), "-trace-out", filepath.Join(dir, "trace.jsonl"))
}

// cliLayers accumulates the per-layer evidence of traced CLI ops.
type cliLayers struct {
	ops        int
	counters   counters
	failed     float64
	quarantine float64
	outside    float64
	census     float64
	rewrite    float64
	gate       float64
	maxErr     float64
	sys        float64
	ledger     float64
	segments   float64
	// cli-incremental only
	reused, rewritten float64
	fReused, fPartial float64
	fFull, cacheBytes float64
	incremental       bool
}

// addTraced folds one traced op's artifacts into the accumulator and
// returns any attribution problem.
func (l *cliLayers) addTraced(p procResult, opDir, state string, workers int) []string {
	l.ops++
	l.sys += p.Sys
	b, n := dirStats(state, "seg-")
	l.ledger += float64(b)
	l.segments += float64(n)
	if l.incremental {
		if info, err := os.Stat(filepath.Join(state, "filecache.json")); err == nil {
			l.cacheBytes += float64(info.Size())
		}
	}
	var problems []string
	rep, err := readRunReport(filepath.Join(opDir, "report.json"))
	if err != nil {
		problems = append(problems, err.Error())
	} else {
		l.counters.add(rep.Counters)
		l.failed += float64(rep.FilesFailed)
		l.quarantine += float64(rep.FilesQuarantined)
	}
	tf, err := readTraceFile(filepath.Join(opDir, "trace.jsonl"))
	if err != nil {
		return append(problems, err.Error())
	}
	a, err := attribute(tf.Spans, p.Wall)
	if err != nil {
		return append(problems, err.Error())
	}
	l.outside += a.Outside
	l.census += a.Census
	l.rewrite += a.Rewrite
	l.gate += a.Gate
	if e := a.NestingErrFrac(); e > l.maxErr {
		l.maxErr = e
	}
	if rep != nil {
		problems = append(problems, a.check(rep.Counters, workers)...)
	}
	return problems
}

func (l *cliLayers) into(dst map[string]float64) {
	if l.ops == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(l.ops) }
	dst["cli.outside_corpus_s"] = per(l.outside)
	dst["cli.cpu_sys_s"] = per(l.sys)
	dst["batch.census_replay_s"] = per(l.census)
	dst["batch.rewrite_wall_s"] = per(l.rewrite)
	dst["batch.gate_wall_s"] = per(l.gate)
	dst["batch.files_failed"] = l.failed
	dst["batch.files_quarantined"] = l.quarantine
	dst["bench.span_nesting_err_frac"] = l.maxErr
	dst["store.ledger_bytes"] = per(l.ledger)
	dst["store.segments"] = per(l.segments)
	if l.incremental {
		dst["incremental.lines_reused"] = per(l.reused)
		dst["incremental.lines_rewritten"] = per(l.rewritten)
		if l.reused+l.rewritten > 0 {
			dst["incremental.reuse_ratio"] = l.reused / (l.reused + l.rewritten)
		}
		dst["incremental.files.reused"] = per(l.fReused)
		dst["incremental.files.partial"] = per(l.fPartial)
		dst["incremental.files.full"] = per(l.fFull)
		dst["incremental.cache_bytes"] = per(l.cacheBytes)
	}
	engineLayers(l.counters, l.ops, dst)
}

// countOp books one finished CLI op: untraced ops feed the end-to-end
// metrics, traced ones the overhead comparison. Every op is its own
// process, so the reported peak RSS is the median of their peaks.
func (r *result) countOp(p procResult, lines int, traced bool) {
	if traced {
		r.TracedLines += float64(lines)
		r.TracedBusy += p.Wall
		return
	}
	r.countUntraced(lines, p.Wall)
	r.CPU += p.User + p.Sys
	r.procRSSKB = append(r.procRSSKB, float64(p.MaxRSSKB))
	r.PeakRSSKB = int64(median(r.procRSSKB))
}

// batchProblems checks a batch run's exit status and summary line.
func batchProblems(p procResult, u *unit) []string {
	var problems []string
	if p.Exit != 0 {
		problems = append(problems, fmt.Sprintf("%s: confanon exit %d: %s", u.Name, p.Exit, firstLine(p.Stderr)))
	}
	var done, total, lines int
	for _, line := range strings.Split(p.Stdout, "\n") {
		if strings.HasPrefix(line, "anonymized ") {
			fmt.Sscanf(line, "anonymized %d of %d files (%d lines)", &done, &total, &lines)
		}
	}
	if done != len(u.Names) || total != len(u.Names) {
		problems = append(problems, fmt.Sprintf("%s: %d of %d files published, want %d", u.Name, done, total, len(u.Names)))
	}
	return problems
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(strings.TrimSpace(s), "\n")
	return s
}

// checkOutputs compares an op's output directory with the reference and
// greps it for the unit's identity tokens.
func checkOutputs(u *unit, out string, want map[string]string) []string {
	got, err := readFiles(out)
	if err != nil {
		return []string{u.Name + ": reading outputs: " + err.Error()}
	}
	var problems []string
	for _, d := range diffOutputs(got, want) {
		problems = append(problems, u.Name+": "+d)
	}
	for _, tok := range identityLeaks(got, u.Identity) {
		problems = append(problems, fmt.Sprintf("%s: identity token %q survives", u.Name, tok))
	}
	return problems
}

// renamedOutputs maps a batch result's outputs to the CLI's published
// (hashed) file names.
func renamedOutputs(a *confanon.Anonymizer, res *confanon.CorpusResult) map[string]string {
	out := make(map[string]string, len(res.Files))
	for name, text := range res.Outputs() {
		out[a.RenameFile(name)] = text
	}
	return out
}

// runCLIBatch: each op is one `confanon -strict` process over one unit
// with a fresh state directory, so every op pays compile, cold memo
// fill, ledger create and per-file commit, census, replay, rewrite, the
// strict gate and the output write.
func runCLIBatch(ctx context.Context, cfg config, cs *corpusSet) (*result, error) {
	bin := filepath.Join(cfg.Bin, "confanon")
	dirs, err := cs.writeUnits(filepath.Join(cfg.Work, "in"))
	if err != nil {
		return nil, err
	}
	// The reference is an in-process serial CorpusContext with the same
	// salt; the CLI runs the parallel pipeline, which must match it.
	refs := make([]map[string]string, len(cs.Units))
	for i, u := range cs.Units {
		a := confanon.Compile(confanon.Options{Salt: []byte(u.Salt), Strict: true}).NewSession()
		res, err := a.CorpusContext(ctx, u.Files)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", u.Name, err)
		}
		refs[i] = renamedOutputs(a, res)
	}

	res := &result{Layers: map[string]float64{}}
	// cli-batch has no set-up of its own: every op starts from nothing.
	// Its setup_s is the one-off cost every invocation pays before its
	// first line, measured alone: confanon over a one-file input (the
	// first unit's smallest file) with a fresh state directory — process
	// start, Program compile, ledger create, one file's commit.
	probeDir := filepath.Join(cfg.Work, "probe-in")
	probe, err := startupProbe(cs.Units[0], probeDir)
	if err != nil {
		return nil, err
	}
	setupDir := filepath.Join(cfg.Work, "setup")
	for r := 0; r < cheapSetupReps; r++ {
		dir := filepath.Join(setupDir, strconv.Itoa(r))
		p, err := runProc(ctx, bin, cliArgs(cfg, probe, probeDir, filepath.Join(dir, "state"), filepath.Join(dir, "out"), false)...)
		if err != nil {
			return nil, err
		}
		if problems := batchProblems(p, probe); len(problems) > 0 {
			return nil, fmt.Errorf("start-up run: %s", strings.Join(problems, "; "))
		}
		res.Setup = append(res.Setup, p.User+p.Sys)
		res.SetupWall = append(res.SetupWall, p.Wall)
	}

	layers := &cliLayers{counters: counters{}}
	end := cfg.deadline()
	for i := 0; time.Now().Before(end); i++ {
		ui := i % len(cs.Units)
		u := cs.Units[ui]
		traced := cfg.Trace && tracedOp(i, len(cs.Units))
		opDir := opPath(cfg, i)
		state, out := filepath.Join(opDir, "state"), filepath.Join(opDir, "out")
		if err := os.MkdirAll(opDir, 0o755); err != nil {
			return nil, err
		}
		args := cliArgs(cfg, u, dirs[ui], state, out, false)
		if traced {
			args = traceArgs(args, opDir)
		}
		p, err := runProc(ctx, bin, args...)
		if err != nil {
			return nil, err
		}
		problems := batchProblems(p, u)
		problems = append(problems, checkOutputs(u, out, refs[ui])...)
		if traced {
			problems = append(problems, layers.addTraced(p, opDir, state, cfg.Procs)...)
		}
		res.Tally.op(problems...)
		res.countOp(p, u.Lines, traced)
		if (i+1)%len(cs.Units) == 0 {
			res.closeRound()
		}
	}
	layers.into(res.Layers)
	if len(res.Ops) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("per-process start-up is %.0f%% of op_p50_s at %d lines per op (wall clock)",
			100*median(res.SetupWall)/median(res.Ops), unitLines))
	}
	return res, nil
}

// startupProbe writes the smallest file of u alone to dir and returns it
// as a one-file unit with u's salt.
func startupProbe(u *unit, dir string) (*unit, error) {
	small := u.Names[0]
	for _, name := range u.Names {
		if len(u.Files[name]) < len(u.Files[small]) {
			small = name
		}
	}
	p := &unit{Name: u.Name + "-probe", Net: u.Net, Salt: u.Salt,
		Files: map[string]string{small: u.Files[small]}, Names: []string{small}}
	p.Lines = countLines(p.Files[small])
	return p, writeFiles(dir, p.Files)
}

// editUnit returns a copy of the unit's files in which the middle line
// of a seeded ~2% of the files (at least one) is replaced, as
// BenchmarkIncremental does: about 1% of the unit's lines then fall
// behind an edit. changed holds the edited files alone.
func editUnit(u *unit, rng *rand.Rand, op int) (files, changed map[string]string) {
	files = make(map[string]string, len(u.Files))
	for name, text := range u.Files {
		files[name] = text
	}
	changed = map[string]string{}
	k := (2*len(u.Names) + 99) / 100
	for j, pick := range rng.Perm(len(u.Names))[:k] {
		name := u.Names[pick]
		ls := strings.Split(files[name], "\n")
		ls[len(ls)/2] = fmt.Sprintf(" description bench-edit 10.200.%d.%d", op%250, j+1)
		files[name] = strings.Join(ls, "\n")
		changed[name] = files[name]
	}
	return files, changed
}

// incrementalSummary parses the CLI's "incremental: ..." line.
func incrementalSummary(stdout string) (reused, partial, full, linesReused, linesRewritten int, ok bool) {
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "incremental: ") {
			n, _ := fmt.Sscanf(line, "incremental: %d files reused, %d resumed, %d rewritten in full (%d lines reused, %d rewritten)",
				&reused, &partial, &full, &linesReused, &linesRewritten)
			return reused, partial, full, linesReused, linesRewritten, n == 5
		}
	}
	return 0, 0, 0, 0, 0, false
}

// fullRunReference is what a full (non-incremental) run over files
// publishes when it starts from the mapping ledger in stateSrc: the
// in-process equivalent of `confanon -strict -state-dir` on a copy of
// that state without its line cache.
func fullRunReference(ctx context.Context, u *unit, stateSrc, tmp string, files map[string]string, workers int) (map[string]string, error) {
	if err := copyDir(stateSrc, tmp); err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(tmp, "filecache.json")); err != nil {
		return nil, err
	}
	st, err := confanon.OpenMappingStore(tmp, []byte(u.Salt))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	a := confanon.Compile(confanon.Options{Salt: []byte(u.Salt), Strict: true}).NewSession()
	if err := a.UseStore(st); err != nil {
		return nil, err
	}
	res, err := a.ParallelCorpusContext(ctx, files, workers)
	if err != nil {
		return nil, err
	}
	return renamedOutputs(a, res), nil
}

// runCLIIncremental: set-up records one full `confanon -incremental`
// run per unit; each op restores a copy of that state, edits ~2% of the
// unit's files and times `confanon -incremental -strict` over it.
func runCLIIncremental(ctx context.Context, cfg config, cs *corpusSet) (*result, error) {
	bin := filepath.Join(cfg.Bin, "confanon")
	dirs, err := cs.writeUnits(filepath.Join(cfg.Work, "in"))
	if err != nil {
		return nil, err
	}
	res := &result{Layers: map[string]float64{}}
	base := filepath.Join(cfg.Work, "base")
	// setup_s sums, over the units, the median of each unit's prior runs:
	// a stretch of host noise then moves one unit's runs, not the total.
	cpus := make([][]float64, len(cs.Units))
	walls := make([][]float64, len(cs.Units))
	for r := 0; r < setupReps; r++ {
		if err := os.RemoveAll(base); err != nil {
			return nil, err
		}
		for i, u := range cs.Units {
			p, err := runProc(ctx, bin, cliArgs(cfg, u, dirs[i], filepath.Join(base, u.Name), filepath.Join(base, "out-"+u.Name), true)...)
			if err != nil {
				return nil, err
			}
			if problems := batchProblems(p, u); len(problems) > 0 {
				return nil, fmt.Errorf("set-up run: %s", strings.Join(problems, "; "))
			}
			cpus[i] = append(cpus[i], p.User+p.Sys)
			walls[i] = append(walls[i], p.Wall)
		}
	}
	cpu, wall := 0.0, 0.0
	for i := range cs.Units {
		cpu += median(cpus[i])
		wall += median(walls[i])
	}
	res.Setup, res.SetupWall = []float64{cpu}, []float64{wall}
	res.SetupHow = fmt.Sprintf("sum over %d units of each unit's median of %d prior runs", len(cs.Units), setupReps)

	layers := &cliLayers{counters: counters{}, incremental: true}
	end := cfg.deadline()
	for i := 0; time.Now().Before(end); i++ {
		ui := i % len(cs.Units)
		u := cs.Units[ui]
		traced := cfg.Trace && tracedOp(i, len(cs.Units))
		edited, changed := editUnit(u, rand.New(rand.NewSource(cfg.Seed*1_000_003+int64(i))), i)
		opDir := opPath(cfg, i)
		state, out := filepath.Join(opDir, "state"), filepath.Join(opDir, "out")
		if err := copyDir(filepath.Join(base, u.Name), state); err != nil {
			return nil, err
		}
		// Only the edited files are rewritten in the unit's input
		// directory, and restored after the op, to keep the harness's own
		// disk writes between ops small.
		if err := writeFiles(dirs[ui], changed); err != nil {
			return nil, err
		}
		args := cliArgs(cfg, u, dirs[ui], state, out, true)
		if traced {
			args = traceArgs(args, opDir)
		}
		p, err := runProc(ctx, bin, args...)
		if err != nil {
			return nil, err
		}
		for name := range changed {
			changed[name] = u.Files[name]
		}
		if err := writeFiles(dirs[ui], changed); err != nil {
			return nil, err
		}
		problems := batchProblems(p, u)
		fr, fp, ff, lr, lw, ok := incrementalSummary(p.Stdout)
		if !ok {
			problems = append(problems, u.Name+": no incremental summary in confanon output")
		}
		if i < len(cs.Units) || i%incrementalCheckEvery == 0 {
			want, err := fullRunReference(ctx, u, filepath.Join(base, u.Name), filepath.Join(opDir, "refstate"), edited, cfg.Procs)
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", u.Name, err)
			}
			problems = append(problems, checkOutputs(u, out, want)...)
		}
		if traced {
			problems = append(problems, layers.addTraced(p, opDir, state, cfg.Procs)...)
			layers.reused += float64(lr)
			layers.rewritten += float64(lw)
			layers.fReused += float64(fr)
			layers.fPartial += float64(fp)
			layers.fFull += float64(ff)
		}
		res.Tally.op(problems...)
		res.countOp(p, u.Lines, traced)
		if (i+1)%len(cs.Units) == 0 {
			res.closeRound()
		}
	}
	layers.into(res.Layers)
	return res, nil
}

// opPath is op i's directory for state, outputs and traced artifacts.
// Op directories are left in place until the run ends: deleting files
// between ops would put the harness's own metadata and discard traffic
// in front of the next op's fsyncs.
func opPath(cfg config, i int) string {
	return filepath.Join(cfg.Work, "ops", strconv.Itoa(i))
}

// tracedOp picks every other op for tracing, flipping the parity each
// round so that every unit is traced in every other round (with an even
// unit count, plain alternation would trace the same units every time).
func tracedOp(i, units int) bool { return (i+i/units)%2 == 1 }
