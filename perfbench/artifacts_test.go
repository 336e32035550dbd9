package main

// The testdata artifacts were emitted by the real binaries (see
// README.md, "Test artifacts"): a strict two-worker confanon run over
// two golden-corpus files with -metrics-out and -trace-out, and a
// confportal /metrics scrape after one job over the same files.

import (
	"math"
	"os"
	"strings"
	"testing"

	"confanon"
	"confanon/internal/trace"
)

func TestReadRunReport(t *testing.T) {
	rep, err := readRunReport("testdata/report.json")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesOK != 2 || rep.FilesFailed != 0 || rep.FilesQuarantined != 0 || rep.Lines != 105 {
		t.Errorf("report counts: ok=%d failed=%d quarantined=%d lines=%d", rep.FilesOK, rep.FilesFailed, rep.FilesQuarantined, rep.Lines)
	}
	c := counters(rep.Counters)
	if c["confanon_lines_total"] != 105 || c.label("confanon_stage_seconds_count", "stage", "rewrite") != 2 {
		t.Errorf("counters: lines=%v rewrite count=%v", c["confanon_lines_total"], c.label("confanon_stage_seconds_count", "stage", "rewrite"))
	}

	dir := t.TempDir()
	if err := os.WriteFile(dir+"/r.json", []byte(`{"schema":"something/else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRunReport(dir + "/r.json"); err == nil {
		t.Error("a foreign schema was accepted")
	}
}

func TestReadTraceAndAttribute(t *testing.T) {
	tf, err := readTraceFile("testdata/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 47 {
		t.Fatalf("%d spans, want 47", len(tf.Spans))
	}
	// Corpus span 407642 +26682691 ns; file spans from 21798406 to
	// 26698458 ns. With a 30 ms process wall:
	a, err := attribute(tf.Spans, 0.030)
	if err != nil {
		t.Fatal(err)
	}
	want := attribution{Wall: 0.030, Outside: 0.030 - 0.026682691, Census: 0.021390764, Rewrite: 0.004900052, Gate: 0.000391875}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"outside", a.Outside, want.Outside}, {"census", a.Census, want.Census},
		{"rewrite", a.Rewrite, want.Rewrite}, {"gate", a.Gate, want.Gate},
		{"span end", a.SpanEnd, 0.027090333},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %.9f, want %.9f", c.name, c.got, c.want)
		}
	}
	if a.NestingErrFrac() > 1e-9 {
		t.Errorf("parts sum to %v, wall %v", a.Sum(), a.Wall)
	}
	rep, err := readRunReport("testdata/report.json")
	if err != nil {
		t.Fatal(err)
	}
	if problems := a.check(rep.Counters, 2); len(problems) > 0 {
		t.Errorf("the emitted artifacts fail the attribution check: %v", problems)
	}
}

func TestAttributionCheckFails(t *testing.T) {
	tf, err := readTraceFile("testdata/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readRunReport("testdata/report.json")
	if err != nil {
		t.Fatal(err)
	}
	// A wall shorter than the trace's timeline: the launcher's clock and
	// the trace clock disagree, and the corpus span cannot nest.
	short, _ := attribute(tf.Spans, 0.020)
	if got := short.check(rep.Counters, 2); len(got) < 2 {
		t.Errorf("a 20 ms wall under a 27 ms trace timeline: %v", got)
	}
	// Stage time the phases cannot hold: the rewrite stages booked ten
	// times what the file spans cover (as if the first file span started
	// late and rewriting were counted as census).
	heavy := counters{}
	heavy.add(rep.Counters)
	heavy[`confanon_stage_seconds_sum{stage="rewrite"}`] = 0.1
	heavy[`confanon_stage_seconds_sum{stage="leakreport"}`] = 0.01
	a, _ := attribute(tf.Spans, 0.030)
	got := a.check(heavy, 2)
	if len(got) != 2 || !strings.Contains(got[0], "rewrite part") || !strings.Contains(got[1], "gate part") {
		t.Errorf("stage time beyond the phases: %v", got)
	}
}

func TestReadTraceRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":          "",
		"foreign header": `{"schema":"other/v1"}` + "\n",
		"bad span":       `{"schema":"confanon.trace/v1"}` + "\n" + `{"t":"span","id":"x"}` + "\n",
	} {
		if _, err := confanon.ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	noCorpus := []*trace.Span{{ID: 1, Kind: trace.KindFile}}
	if _, err := attribute(noCorpus, 1); err == nil {
		t.Error("a trace without a corpus span was attributed")
	}
	two := []*trace.Span{{ID: 1, Kind: trace.KindCorpus}, {ID: 2, Kind: trace.KindCorpus}}
	if _, err := attribute(two, 1); err == nil {
		t.Error("a trace with two corpus spans was attributed")
	}
}

func TestReadScrape(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := readScrape(f)
	if err != nil {
		t.Fatal(err)
	}
	if c["confanon_jobs_run_seconds_count"] != 1 || c["confanon_jobs_wait_seconds_count"] != 1 {
		t.Errorf("job histograms: run count %v, wait count %v", c["confanon_jobs_run_seconds_count"], c["confanon_jobs_wait_seconds_count"])
	}
	if got := c.family("confanon_portal_requests_total"); got != 4 {
		t.Errorf("requests family sums to %v, want 4 (exemplar comments skipped)", got)
	}
	if c.label("confanon_stage_seconds_count", "stage", "prescan") != 2 {
		t.Error("labelled series not found by label()")
	}
	if c["confanon_lines_total"] != 105 {
		t.Errorf("lines %v, want 105", c["confanon_lines_total"])
	}
	if _, err := readScrape(strings.NewReader("confanon_x notanumber\n")); err == nil {
		t.Error("a bad value was accepted")
	}
}

func TestCountersDeltaAndEngineLayers(t *testing.T) {
	rep, err := readRunReport("testdata/report.json")
	if err != nil {
		t.Fatal(err)
	}
	after := counters(rep.Counters)
	before := counters{"confanon_lines_total": 5}
	if d := after.minus(before); d["confanon_lines_total"] != 100 {
		t.Errorf("delta lines %v, want 100", d["confanon_lines_total"])
	}
	sum := counters{}
	sum.add(after)
	sum.add(after)
	layers := map[string]float64{}
	engineLayers(sum, 2, layers) // two identical ops: means equal one op
	if layers["anonymizer.rewrite_n"] != 2 || layers["cregex.cache_hits"] != 3 || layers["cregex.hit_ratio"] != 0.5 {
		t.Errorf("layers: rewrite_n=%v hits=%v ratio=%v", layers["anonymizer.rewrite_n"], layers["cregex.cache_hits"], layers["cregex.hit_ratio"])
	}
	if layers["anonymizer.rule_time_s.other"] != 0 {
		t.Errorf("built-in rule time booked as other: %v", layers["anonymizer.rule_time_s.other"])
	}
	total := 0.0
	for _, id := range builtinRules {
		total += layers["anonymizer.rule_time_s."+id]
	}
	if want := after.family("confanon_rule_time_ns_total") / 1e9; math.Abs(total-want) > 1e-12 {
		t.Errorf("rule times sum to %v, want %v", total, want)
	}
}
