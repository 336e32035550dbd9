package confanon_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	. "confanon"
	"confanon/internal/metrics"
	"confanon/internal/portal"
)

const goldenSalt = "golden-v1"

func readGoldenDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	if len(files) == 0 {
		t.Fatalf("no files in %s", dir)
	}
	return files
}

// This file pins the observability contract end to end: the registry's
// counters must agree exactly with the Stats and per-file outcomes the
// batch APIs report — in the serial and the parallel mode — and a
// portal GET /metrics scrape of the same registry must expose the very
// numbers the RunReport carries.

// checkStatsCounters asserts the registry's engine counters equal the
// accumulated Stats, series for series. Given the Anonymizer that ran,
// it also checks the series read from its IP mapper and its Program.
func checkStatsCounters(t *testing.T, counters map[string]float64, s Stats, src ...*Anonymizer) {
	t.Helper()
	type row struct {
		name string
		want int64
	}
	rows := []row{
		{"confanon_files_processed_total", s.Files},
		{"confanon_lines_total", s.Lines},
		{"confanon_words_total", s.WordsTotal},
		{"confanon_comment_words_removed_total", s.CommentWordsRemoved},
		{"confanon_comment_lines_removed_total", s.CommentLinesRemoved},
		{"confanon_tokens_hashed_total", s.TokensHashed},
		{"confanon_tokens_passed_total", s.TokensPassed},
		{"confanon_ips_mapped_total", s.IPsMapped},
		{"confanon_asns_mapped_total", s.ASNsMapped},
		{"confanon_communities_mapped_total", s.CommunitiesMapped},
		{"confanon_regexps_rewritten_total", s.RegexpsRewritten},
		{"confanon_regexps_unchanged_total", s.RegexpsUnchanged},
		{"confanon_regexp_fallbacks_total", s.RegexpFallbacks},
	}
	for _, a := range src {
		entries, remaps, walks := a.MapperSources()
		rows = append(rows,
			row{"confanon_ipmap_entries_total", entries},
			row{"confanon_ipmap_remaps_total", remaps},
			row{"confanon_asn_cycle_walks_total", walks})
	}
	for _, c := range rows {
		if got := counters[c.name]; got != float64(c.want) {
			t.Errorf("%s = %v, want %d (Stats)", c.name, got, c.want)
		}
	}
	for id, n := range s.RuleHits() {
		series := `confanon_rule_hits_total{rule="` + string(id) + `"}`
		if got := counters[series]; got != float64(n) {
			t.Errorf("%s = %v, want %d", series, got, n)
		}
	}
}

// TestMetricsMatchCorpusSerial: after a serial fail-closed corpus run
// the registry equals the CorpusResult exactly — engine counters equal
// Stats, batch outcome counters equal the per-status file counts, and
// the attached RunReport snapshot equals a live read of the registry.
func TestMetricsMatchCorpusSerial(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	a := New(Options{Salt: []byte(goldenSalt), Metrics: reg})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Counters()
	checkStatsCounters(t, counters, res.Stats, a)
	if got := counters[`confanon_batch_files_total{status="ok"}`]; got != float64(res.Report.FilesOK) {
		t.Errorf("batch ok counter = %v, want %d", got, res.Report.FilesOK)
	}
	if res.Report.FilesOK != len(in) || res.Report.FilesFailed != 0 || res.Report.FilesQuarantined != 0 {
		t.Errorf("unexpected outcome counts: %+v", res.Report)
	}
	if !reflect.DeepEqual(res.Report.Counters, counters) {
		t.Error("RunReport.Counters does not equal a live registry read")
	}
}

// TestMetricsMatchCorpusParallel: the parallel path shares one registry
// across workers, so the merged counters must equal the merged Stats
// with no gather step. Run with -race this also exercises concurrent
// registration and flushing.
func TestMetricsMatchCorpusParallel(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	res, err := ParallelCorpusContext(context.Background(),
		Options{Salt: []byte(goldenSalt), Metrics: reg}, in, 4)
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Counters()
	checkStatsCounters(t, counters, res.Stats)
	if got := counters[`confanon_batch_files_total{status="ok"}`]; got != float64(res.Report.FilesOK) {
		t.Errorf("batch ok counter = %v, want %d", got, res.Report.FilesOK)
	}
	if res.Report.FilesOK != len(in) {
		t.Errorf("FilesOK = %d, want %d", res.Report.FilesOK, len(in))
	}
}

// TestPortalScrapeMatchesRunReport is the acceptance check of the
// observability layer: a portal serving the same registry a corpus run
// reported into must expose, at GET /metrics, exactly the counter
// values the RunReport carries — series for series, parsed back out of
// the Prometheus text.
func TestPortalScrapeMatchesRunReport(t *testing.T) {
	in := readGoldenDir(t, "testdata/golden/in")
	reg := NewMetricsRegistry()
	a := New(Options{Salt: []byte(goldenSalt), Metrics: reg, Strict: true})
	res, err := a.CorpusContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Counters) == 0 {
		t.Fatal("RunReport carries no counters")
	}

	store := portal.NewStore()
	store.SetMetrics(reg)
	store.SetAdminToken("sesame")
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	scrape := func(token string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The gate: wrong token is 401, right token is 200.
	if resp := scrape("wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong admin token: status %d, want 401", resp.StatusCode)
	}
	resp := scrape("sesame")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped, err := metrics.ParseText(string(body))
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	for series, want := range res.Report.Counters {
		got, ok := scraped[series]
		if !ok {
			t.Errorf("scrape is missing series %s", series)
			continue
		}
		if got != want {
			t.Errorf("scrape %s = %v, report says %v", series, got, want)
		}
	}
}

// TestPortalMetricsFailClosed: with no admin token configured the
// observability endpoints do not exist — 404, exactly like any unknown
// path — even when a registry is wired.
func TestPortalMetricsFailClosed(t *testing.T) {
	store := portal.NewStore()
	store.SetMetrics(NewMetricsRegistry())
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without admin token: status %d, want 404", path, resp.StatusCode)
		}
	}
}
