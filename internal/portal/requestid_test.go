package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"confanon/internal/metrics"
)

// TestRequestIDThreadsThroughLogAndExemplar pins the tracing story of
// one request: the X-Request-Id the client receives is the same id the
// structured request log carries and the same id annotating the request
// counter's exemplar comment on /metrics — so a client-reported failure
// can be chased through both without guesswork.
func TestRequestIDThreadsThroughLogAndExemplar(t *testing.T) {
	s := NewStore()
	var logBuf bytes.Buffer
	s.SetSlogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	s.SetMetrics(metrics.NewRegistry())
	s.SetAdminToken("sesame")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{12}$`).MatchString(id) {
		t.Fatalf("X-Request-Id = %q, want 12 hex chars", id)
	}
	if !strings.Contains(logBuf.String(), "request_id="+id) {
		t.Errorf("request log does not carry the request id:\n%s", logBuf.String())
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("X-Admin-Token", "sesame")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	want := `# exemplar confanon_portal_requests_total{method="GET",code="200"} request_id="` + id + `"`
	if !strings.Contains(string(body), want) {
		t.Errorf("scrape lacks the exemplar line %q:\n%s", want, body)
	}
	// The exemplar is a comment: the text parser must still accept the
	// whole exposition.
	if _, err := metrics.ParseText(string(body)); err != nil {
		t.Errorf("exposition with exemplars no longer parses: %v", err)
	}
}

// TestRequestIDDistinct: each request draws a fresh id.
func TestRequestIDDistinct(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if seen[id] {
			t.Fatalf("request id %q repeated", id)
		}
		seen[id] = true
	}
}

// TestPrincipalNeverLogsOwnerTokens: the request log names researchers
// by handle but reduces anonymous owners to "-" — owner tokens grant
// access to blinded conversations and must never reach the log.
func TestPrincipalNeverLogsOwnerTokens(t *testing.T) {
	s := NewStore()
	var logBuf bytes.Buffer
	s.SetSlogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	s.AddResearcher("key-alice", "alice")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := strings.NewReader(`{"label":"d","files":{"r1":"hostname x\n"}}`)
	resp, err := http.Post(srv.URL+"/datasets", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		OwnerToken string `json:"owner_token"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/datasets", nil)
	req.Header.Set("X-API-Key", "key-alice")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	logs := logBuf.String()
	if !strings.Contains(logs, "owner=alice") {
		t.Errorf("researcher request not attributed to its handle:\n%s", logs)
	}
	if created.OwnerToken != "" && strings.Contains(logs, created.OwnerToken) {
		t.Error("owner token appears in the request log")
	}
	if strings.Contains(logs, "key-alice") {
		t.Error("API key appears in the request log")
	}
}
