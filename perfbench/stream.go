package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"confanon"
)

// The stream-warm measurement runs in a child process (this binary with
// -stream-child) so that its CPU time and peak RSS are those of a
// library caller holding the inputs and the warm Programs, not of the
// harness that generated the corpus.

// manifestName is the unit list the parent writes beside the unit
// directories for the child.
const manifestName = "manifest.json"

type manifestEntry struct {
	Unit string `json:"unit"`
	Salt string `json:"salt"`
}

// streamReport is the child's result, printed as JSON on its stdout.
type streamReport struct {
	Setup       []float64          `json:"setup"`
	SetupWall   []float64          `json:"setup_wall"`
	Ops         []float64          `json:"ops"`
	Lines       float64            `json:"lines"`
	Busy        float64            `json:"busy"`
	Rates       []float64          `json:"rates"`
	CPU         float64            `json:"cpu"`
	TracedLines float64            `json:"traced_lines"`
	TracedBusy  float64            `json:"traced_busy"`
	Tally       tally              `json:"tally"`
	Layers      map[string]float64 `json:"layers"`
	Notes       []string           `json:"notes"`
}

// runStreamWarm writes the units and measures them in a child process.
func runStreamWarm(ctx context.Context, cfg config, cs *corpusSet) (*result, error) {
	in := filepath.Join(cfg.Work, "in")
	if _, err := cs.writeUnits(in); err != nil {
		return nil, err
	}
	var manifest []manifestEntry
	for _, u := range cs.Units {
		manifest = append(manifest, manifestEntry{Unit: u.Name, Salt: u.Salt})
	}
	b, err := json.Marshal(manifest)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(in, manifestName), b, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	p, err := runProc(ctx, self, "-stream-child", in, "-seconds", strconv.Itoa(int(cfg.Seconds)), "-trace", trace)
	if err != nil {
		return nil, err
	}
	if p.Exit != 0 {
		return nil, fmt.Errorf("stream child exit %d: %s", p.Exit, firstLine(p.Stderr))
	}
	var rep streamReport
	if err := json.Unmarshal([]byte(strings.TrimSpace(p.Stdout)), &rep); err != nil {
		return nil, fmt.Errorf("stream child result: %w", err)
	}
	return &result{
		Setup: rep.Setup, SetupWall: rep.SetupWall, Ops: rep.Ops, Lines: rep.Lines, Busy: rep.Busy, Rates: rep.Rates, CPU: rep.CPU,
		PeakRSSKB: p.MaxRSSKB, Tally: rep.Tally, TracedLines: rep.TracedLines, TracedBusy: rep.TracedBusy,
		Layers: rep.Layers, Notes: rep.Notes,
	}, nil
}

// programWide are the registry series whose source is shared by every
// Session of a Program.
var programWide = []string{"confanon_cregex_cache_hits_total", "confanon_cregex_cache_misses_total", "confanon_asn_cycle_walks_total"}

// streamFile is one input of the stream-warm pass, with the output the
// warm-up pass produced for it.
type streamFile struct {
	name string
	text string
	want []byte
}

// streamUnit is one op: a unit's files, streamed one Stream call per
// file through its owner's Session. Ops are per unit, not per file,
// because single files range from about 100 to 4,000 lines, and per-file
// latency would measure which routers the seed drew rather than the code.
type streamUnit struct {
	owner int
	lines int
	files []*streamFile
}

// runStreamChild is the child side: load the units, set up, stream.
func runStreamChild(dir string, cfg config) int {
	rep, err := streamChild(dir, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench stream child:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench stream child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func streamChild(dir string, cfg config) (*streamReport, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var manifest []manifestEntry
	if err := json.Unmarshal(b, &manifest); err != nil {
		return nil, err
	}
	// One owner per salt, one Program per owner.
	var salts []string
	ownerOf := map[string]int{}
	var units []*streamUnit
	totalLines := 0
	for _, m := range manifest {
		if _, ok := ownerOf[m.Salt]; !ok {
			ownerOf[m.Salt] = len(salts)
			salts = append(salts, m.Salt)
		}
		texts, err := readFiles(filepath.Join(dir, m.Unit))
		if err != nil {
			return nil, err
		}
		u := &streamUnit{owner: ownerOf[m.Salt]}
		for _, name := range sortedKeys(texts) {
			u.files = append(u.files, &streamFile{name: m.Unit + "/" + name, text: texts[name]})
			u.lines += countLines(texts[name])
		}
		units = append(units, u)
		totalLines += u.lines
	}
	compile := func(reg *confanon.MetricsRegistry) []*confanon.Program {
		progs := make([]*confanon.Program, len(salts))
		for i, s := range salts {
			progs[i] = confanon.Compile(confanon.Options{Salt: []byte(s), StatelessIP: true, Metrics: reg})
		}
		return progs
	}
	sessions := func(progs []*confanon.Program) []*confanon.Anonymizer {
		out := make([]*confanon.Anonymizer, len(progs))
		for i, p := range progs {
			out[i] = p.NewSession()
		}
		return out
	}
	var buf bytes.Buffer
	// stream runs one op: every file of u through sess, each checked
	// against the warm-up output (or recording it when record is set). It
	// returns the time spent in Stream calls, the op's problems, and how
	// many Stream calls failed.
	stream := func(sess []*confanon.Anonymizer, u *streamUnit, record bool) (float64, []string, int) {
		var busy time.Duration
		var problems []string
		failed := 0
		for _, f := range u.files {
			buf.Reset()
			start := time.Now()
			err := sess[u.owner].Stream(strings.NewReader(f.text), &buf)
			busy += time.Since(start)
			switch {
			case err != nil:
				problems = append(problems, f.name+": "+err.Error())
				failed++
			case record:
				f.want = append([]byte(nil), buf.Bytes()...)
			case !bytes.Equal(buf.Bytes(), f.want):
				problems = append(problems, f.name+": output differs from the warm-up pass")
			}
		}
		return busy.Seconds(), problems, failed
	}
	// pass runs every op once on fresh Sessions of progs.
	pass := func(progs []*confanon.Program, record bool) (time.Duration, error) {
		start := time.Now()
		sess := sessions(progs)
		for _, u := range units {
			if _, problems, _ := stream(sess, u, record); len(problems) > 0 {
				return 0, errors.New(problems[0])
			}
		}
		return time.Since(start), nil
	}

	rep := &streamReport{Layers: map[string]float64{}}
	// Set-up: compile one StatelessIP, non-strict Program per owner and
	// warm it with one full pass; repeated, the last set kept.
	var progs []*confanon.Program
	var firstPass time.Duration
	for r := 0; r < setupReps; r++ {
		start, cpu := time.Now(), selfCPU()
		progs = compile(nil)
		if firstPass, err = pass(progs, r == 0); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		rep.Setup = append(rep.Setup, selfCPU()-cpu)
		rep.SetupWall = append(rep.SetupWall, time.Since(start).Seconds())
	}

	var reg *confanon.MetricsRegistry
	var tracedProgs []*confanon.Program
	// Program-wide counters of the traced Programs at the end of the
	// previous complete traced pass, when the registry re-books them.
	var prevWide counters
	if cfg.Trace {
		// Cold memo fill: the first pass over a fresh Program minus a warm
		// pass over the same files.
		var warm []float64
		for r := 0; r < 3; r++ {
			d, err := pass(progs, false)
			if err != nil {
				return nil, err
			}
			warm = append(warm, d.Seconds())
		}
		rep.Layers["cregex.cold_fill_s"] = firstPass.Seconds() - median(warm)
		// Traced passes run on a second set of Programs wired to a metrics
		// registry, with fresh Sessions per pass like the untraced ones.
		reg = confanon.NewMetricsRegistry()
		tracedProgs = compile(reg)
		var before counters
		for r := 0; r < 2; r++ {
			before = reg.Counters()
			if _, err := pass(tracedProgs, false); err != nil {
				return nil, fmt.Errorf("traced warm-up pass: %w", err)
			}
		}
		// The second pass ran on a warm memo, so it missed nothing. If the
		// registry still booked misses for it, every new Session books the
		// Program-wide counters (memo hits and misses, ASN cycle walks)
		// from zero, re-counting the Program's history; a pass's own share
		// is then the difference between successive passes.
		second := counters(reg.Counters()).minus(before)
		if second["confanon_cregex_cache_misses_total"] > 0 {
			prevWide = counters{}
			for _, k := range programWide {
				prevWide[k] = second[k]
			}
			rep.Notes = append(rep.Notes, "the metrics registry books Program-wide counters (cregex memo, ASN cycle walks) from zero for every Session of a Program; per-pass values are taken as differences")
		}
	}

	var tracedOps, streamErrs int
	var mallocs, allocBytes, allocLines float64
	delta := counters{}
	cpu0 := selfCPU()
	end := cfg.deadline()
	for p := 0; time.Now().Before(end); p++ {
		isTraced := cfg.Trace && p%2 == 1
		var sess []*confanon.Anonymizer
		var before counters
		var ms0 runtime.MemStats
		if isTraced {
			sess = sessions(tracedProgs)
			before = reg.Counters()
			runtime.ReadMemStats(&ms0)
		} else {
			sess = sessions(progs)
		}
		done := 0
		var passLines, passBusy float64
		for _, u := range units {
			if !time.Now().Before(end) {
				break
			}
			d, problems, failed := stream(sess, u, false)
			rep.Tally.op(problems...)
			streamErrs += failed
			done++
			if isTraced {
				rep.TracedLines += float64(u.lines)
				rep.TracedBusy += d
				continue
			}
			rep.Ops = append(rep.Ops, d)
			rep.Lines += float64(u.lines)
			rep.Busy += d
			passLines += float64(u.lines)
			passBusy += d
		}
		if !isTraced && done == len(units) {
			rep.Rates = append(rep.Rates, rate(passLines, passBusy))
		}
		// Per-layer numbers come from complete traced passes only: a pass
		// cut by the deadline leaves some owners' Sessions unused.
		if isTraced && done == len(units) {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			mallocs += float64(ms1.Mallocs - ms0.Mallocs)
			allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			allocLines += float64(totalLines)
			d := counters(reg.Counters()).minus(before)
			if prevWide != nil {
				for _, k := range programWide {
					d[k], prevWide[k] = d[k]-prevWide[k], d[k]
				}
			}
			delta.add(d)
			tracedOps += len(units)
		}
	}
	rep.CPU = selfCPU() - cpu0
	if cfg.Trace {
		engineLayers(delta, tracedOps, rep.Layers)
		if allocLines > 0 {
			rep.Layers["anonymizer.allocs_per_line"] = mallocs / allocLines
			rep.Layers["anonymizer.alloc_bytes_per_line"] = allocBytes / allocLines
		}
		rep.Layers["batch.census_replay_s"] = 0 // Stream has no census
		rep.Layers["batch.files_failed"] = float64(streamErrs)
		if m := delta["confanon_cregex_cache_misses_total"]; m > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("cregex memo missed %.0f times on timed ops; the warm Program should answer every rewrite from its memo", m))
		}
	}
	return rep, nil
}
