package main

// Readers for the artifacts the program already emits: the -metrics-out
// run report, the -trace-out span JSONL and the Prometheus text served
// at GET /metrics. The benchmark derives its per-layer numbers from
// these and from its own timers; it adds no instrumentation inside the
// program.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"confanon"
	"confanon/internal/metrics"
	"confanon/internal/trace"
)

// readRunReport parses a confanon.run_report/v1 file.
func readRunReport(path string) (*confanon.RunReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep confanon.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("run report %s: %w", path, err)
	}
	if rep.Schema != confanon.RunReportSchema {
		return nil, fmt.Errorf("run report %s: schema %q, want %q", path, rep.Schema, confanon.RunReportSchema)
	}
	return &rep, nil
}

// readTraceFile parses a -trace-out file with the library's own reader.
func readTraceFile(path string) (*confanon.TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return confanon.ReadTrace(f)
}

// readScrape parses a GET /metrics body with the metrics package's own
// parser, which also puts label order into a canonical form.
func readScrape(r io.Reader) (counters, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return metrics.ParseText(string(b))
}

// attribution splits one CLI process's wall time into the layers the
// trace can see. The corpus span covers the batch call; its file spans
// mark where rewriting starts and ends. So:
//
//	outside = wall - corpus span   (startup, input read, compile, ledger
//	                                open/replay, cache decode/encode,
//	                                output write)
//	census  = corpus start -> first file span start (census + replay,
//	                                or the serial prescan)
//	rewrite = first file span start -> last file span end
//	gate    = last file span end -> corpus end (strict gate)
//
// Each part is clamped at zero.
type attribution struct {
	Wall, Outside, Census, Rewrite, Gate float64 // seconds
	// SpanEnd is when the corpus span ended on the trace clock, which
	// starts inside the process when its tracer is created.
	SpanEnd float64
}

// Sum is the total of the parts.
func (a attribution) Sum() float64 { return a.Outside + a.Census + a.Rewrite + a.Gate }

// NestingErrFrac is |sum of parts - wall| / wall. The parts tile the
// wall by construction, so this only catches spans that do not nest: a
// file span outside its corpus span, or a corpus span longer than the
// process, makes a clamped part and a sum that misses the wall.
func (a attribution) NestingErrFrac() float64 {
	if a.Wall <= 0 {
		return 1
	}
	d := a.Sum() - a.Wall
	if d < 0 {
		d = -d
	}
	return d / a.Wall
}

// attributionTolerance is the relative slack every attribution check
// allows.
const attributionTolerance = 0.02

// check tests the attribution against timers that do not come from the
// corpus span, and returns what fails:
//
//   - nesting: the parts sum to the wall (see NestingErrFrac);
//   - clock: the trace's timeline up to the corpus span's end fits
//     inside the process wall the launcher timed from outside;
//   - busy: each phase is long enough to hold the stage time the run
//     report's confanon_stage_seconds histograms booked to it, with at
//     most workers stages running at once: prescan and rewrite stages run
//     inside file spans, leak-report stages in the gate.
//
// Time booked to the wrong part (a census that swallows rewriting, a
// gate that starts early) fails the busy check; a trace clock that runs
// fast fails the clock check.
func (a attribution) check(report counters, workers int) []string {
	var problems []string
	tol := attributionTolerance
	if e := a.NestingErrFrac(); e > tol {
		problems = append(problems, fmt.Sprintf("attribution: parts sum to %.4fs, process wall %.4fs (tolerance %.0f%%)", a.Sum(), a.Wall, tol*100))
	}
	if a.SpanEnd > a.Wall*(1+tol) {
		problems = append(problems, fmt.Sprintf("attribution: trace clock reaches %.4fs, process wall is %.4fs", a.SpanEnd, a.Wall))
	}
	w := float64(workers)
	busy := func(stage string) float64 { return report.label("confanon_stage_seconds_sum", "stage", stage) }
	if need := (busy("prescan") + busy("rewrite")) / w; a.Rewrite < need*(1-tol) {
		problems = append(problems, fmt.Sprintf("attribution: rewrite part %.4fs cannot hold %.4fs of prescan+rewrite stage time on %d workers", a.Rewrite, need, workers))
	}
	if need := busy("leakreport") / w; a.Gate < need*(1-tol) {
		problems = append(problems, fmt.Sprintf("attribution: gate part %.4fs cannot hold %.4fs of leak-report stage time on %d workers", a.Gate, need, workers))
	}
	return problems
}

func clamp0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// attribute computes the attribution of one traced process from its
// spans and its wall time as the benchmark measured it.
func attribute(spans []*trace.Span, wall float64) (attribution, error) {
	var corpus *trace.Span
	for _, s := range spans {
		if s.Kind == trace.KindCorpus {
			if corpus != nil {
				return attribution{}, errors.New("trace: more than one corpus span")
			}
			corpus = s
		}
	}
	if corpus == nil {
		return attribution{}, errors.New("trace: no corpus span")
	}
	first, last := int64(-1), int64(-1)
	for _, s := range spans {
		if s.Kind != trace.KindFile || s.Parent != corpus.ID {
			continue
		}
		if first < 0 || s.StartNs < first {
			first = s.StartNs
		}
		if end := s.StartNs + s.DurNs; end > last {
			last = end
		}
	}
	cStart, cEnd := corpus.StartNs, corpus.StartNs+corpus.DurNs
	if first < 0 { // no file reached the rewrite phase
		first, last = cEnd, cEnd
	}
	ns := func(d int64) float64 { return clamp0(float64(d) / 1e9) }
	return attribution{
		Wall:    wall,
		Outside: clamp0(wall - float64(corpus.DurNs)/1e9),
		Census:  ns(first - cStart),
		Rewrite: ns(last - first),
		Gate:    ns(cEnd - last),
		SpanEnd: float64(cEnd) / 1e9,
	}, nil
}

// counters is a series-identity → value snapshot (a run report's
// Counters, a parsed scrape, or a registry's Counters()).
type counters map[string]float64

// family sums every series of the named metric.
func (c counters) family(name string) float64 {
	sum := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// label returns the series name{key="value"}.
func (c counters) label(name, key, value string) float64 {
	return c[name+"{"+key+`="`+value+`"}`]
}

// add accumulates o into c.
func (c counters) add(o map[string]float64) {
	for k, v := range o {
		c[k] += v
	}
}

// minus returns c - before, series by series.
func (c counters) minus(before map[string]float64) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// engineLayers derives the anonymizer, cregex, ipanon and asn per-layer
// metrics from engine counters summed over ops, as means per op.
func engineLayers(c counters, ops int, dst map[string]float64) {
	if ops <= 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(ops) }
	for _, st := range stages {
		dst["anonymizer."+st+"_busy_s"] = per(c.label("confanon_stage_seconds_sum", "stage", st))
		dst["anonymizer."+st+"_n"] = per(c.label("confanon_stage_seconds_count", "stage", st))
	}
	known := 0.0
	for _, id := range builtinRules {
		v := c.label("confanon_rule_time_ns_total", "rule", id)
		known += v
		dst["anonymizer.rule_time_s."+id] = per(v / 1e9)
	}
	dst["anonymizer.rule_time_s.other"] = per(clamp0(c.family("confanon_rule_time_ns_total")-known) / 1e9)
	dst["anonymizer.tokens_hashed"] = per(c["confanon_tokens_hashed_total"])
	dst["anonymizer.tokens_passed"] = per(c["confanon_tokens_passed_total"])
	dst["anonymizer.words"] = per(c["confanon_words_total"])
	hits, misses := c["confanon_cregex_cache_hits_total"], c["confanon_cregex_cache_misses_total"]
	dst["cregex.cache_hits"] = per(hits)
	dst["cregex.cache_misses"] = per(misses)
	if hits+misses > 0 {
		dst["cregex.hit_ratio"] = hits / (hits + misses)
	}
	dst["ipanon.ips_mapped"] = per(c["confanon_ips_mapped_total"])
	dst["ipanon.ipmap_entries"] = per(c["confanon_ipmap_entries_total"])
	dst["ipanon.remaps"] = per(c["confanon_ipmap_remaps_total"])
	dst["asn.asns_mapped"] = per(c["confanon_asns_mapped_total"])
	dst["asn.communities_mapped"] = per(c["confanon_communities_mapped_total"])
	dst["asn.cycle_walks"] = per(c["confanon_asn_cycle_walks_total"])
}
