package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"confanon/internal/anonymizer"
	"confanon/internal/netgen"
)

func newTestPortal() (*Store, *httptest.Server) {
	s := NewStore()
	s.SetSlogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	s.AddResearcher("key-alice", "alice")
	srv := httptest.NewServer(s.Handler())
	return s, srv
}

func postJSON(t *testing.T, url string, v interface{}, headers map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(v)
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, val := range headers {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getWithKey(t *testing.T, url, key string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// anonymizedFiles builds a small, genuinely anonymized corpus.
func anonymizedFiles(t *testing.T) map[string]string {
	t.Helper()
	n := netgen.Generate(netgen.Params{Seed: 77, Kind: netgen.Backbone, Routers: 6})
	a := anonymizer.New(anonymizer.Options{Salt: []byte(n.Salt)})
	out := make(map[string]string)
	for name, text := range n.RenderAll() {
		out[a.HashFileName(name)] = a.AnonymizeText(text)
	}
	return out
}

func TestUploadListFetchFlow(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()

	files := anonymizedFiles(t)
	resp := postJSON(t, srv.URL+"/datasets", uploadRequest{Label: "backbone, 6 routers", Files: files}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var up uploadResponse
	_ = json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	if up.ID == "" || up.OwnerToken == "" {
		t.Fatalf("upload response incomplete: %+v", up)
	}

	// Listing requires a researcher key.
	if r := getWithKey(t, srv.URL+"/datasets", ""); r.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated list status %d", r.StatusCode)
	}
	r := getWithKey(t, srv.URL+"/datasets", "key-alice")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", r.StatusCode)
	}
	var list []datasetInfo
	_ = json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list) != 1 || list[0].ID != up.ID || list[0].Files != len(files) {
		t.Fatalf("list = %+v", list)
	}

	// File index and content.
	r = getWithKey(t, srv.URL+"/datasets/"+up.ID+"/files", "key-alice")
	var names []string
	_ = json.NewDecoder(r.Body).Decode(&names)
	r.Body.Close()
	if len(names) != len(files) {
		t.Fatalf("file index = %v", names)
	}
	r = getWithKey(t, srv.URL+"/datasets/"+up.ID+"/files/"+names[0], "key-alice")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("file fetch status %d", r.StatusCode)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(r.Body)
	r.Body.Close()
	if buf.String() != files[names[0]] {
		t.Error("file content mismatch")
	}
}

func TestScreenRejectsRawConfigs(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()
	raw := map[string]string{
		"r1-confg": "hostname r1\ninterface Ethernet0\n description uunet peering in lax\n ip address 1.1.1.1 255.255.255.0\nend\n",
	}
	resp := postJSON(t, srv.URL+"/datasets", uploadRequest{Label: "oops", Files: raw}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("raw upload status %d, want 422", resp.StatusCode)
	}
	var up uploadResponse
	_ = json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	if len(up.Problems) == 0 {
		t.Fatal("no problems reported")
	}
	joined := strings.Join(up.Problems, "\n")
	if !strings.Contains(joined, "description") {
		t.Errorf("description leak not flagged: %s", joined)
	}
}

func TestScreenHeuristics(t *testing.T) {
	cases := []struct {
		name string
		text string
		bad  bool
	}{
		{"comment", "! managed by foo corp\nhostname x\n", true},
		{"banner", "banner motd ^\nwelcome to foonet\n^\n", true},
		{"ispname", "interface Serial0\n ip address 1.1.1.1 255.255.255.252\nuunet-map\n", true},
		{"clean", "hostname xab12\ninterface Serial0\n ip address 12.1.1.1 255.255.255.252\n!\nend\n", false},
		{"empty-banner", "banner motd ^\n^\nend\n", false},
	}
	for _, c := range cases {
		problems := Screen(map[string]string{"f": c.text})
		if (len(problems) > 0) != c.bad {
			t.Errorf("Screen(%s) = %v, want bad=%v", c.name, problems, c.bad)
		}
	}
}

func TestBlindCommentThread(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()
	files := anonymizedFiles(t)
	resp := postJSON(t, srv.URL+"/datasets", uploadRequest{Label: "d", Files: files}, nil)
	var up uploadResponse
	_ = json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()

	// Researcher asks a question.
	r := postJSON(t, srv.URL+"/datasets/"+up.ID+"/comments",
		commentRequest{Text: "is the OSPF area layout intentional?"},
		map[string]string{"X-API-Key": "key-alice"})
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("researcher comment status %d", r.StatusCode)
	}
	r.Body.Close()

	// Owner replies with the token.
	r = postJSON(t, srv.URL+"/datasets/"+up.ID+"/comments",
		commentRequest{Text: "yes, one area per pop", OwnerToken: up.OwnerToken}, nil)
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("owner comment status %d", r.StatusCode)
	}
	r.Body.Close()

	// A stranger cannot post or read.
	r = postJSON(t, srv.URL+"/datasets/"+up.ID+"/comments", commentRequest{Text: "hi"}, nil)
	if r.StatusCode != http.StatusUnauthorized {
		t.Errorf("stranger comment status %d", r.StatusCode)
	}
	r.Body.Close()
	r = getWithKey(t, srv.URL+"/datasets/"+up.ID+"/comments", "")
	if r.StatusCode != http.StatusUnauthorized {
		t.Errorf("stranger read status %d", r.StatusCode)
	}
	r.Body.Close()

	// Owner reads the thread via token; attribution is role-only.
	r = getWithKey(t, srv.URL+"/datasets/"+up.ID+"/comments?owner_token="+up.OwnerToken, "")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("owner read status %d", r.StatusCode)
	}
	var thread []Comment
	_ = json.NewDecoder(r.Body).Decode(&thread)
	r.Body.Close()
	if len(thread) != 2 || thread[0].From != "researcher" || thread[1].From != "owner" {
		t.Fatalf("thread = %+v", thread)
	}
	for _, c := range thread {
		if strings.Contains(c.From, "alice") {
			t.Error("researcher identity leaked through the blind")
		}
	}
}

func TestUploadValidation(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()
	// Empty file set.
	r := postJSON(t, srv.URL+"/datasets", uploadRequest{Label: "x"}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload status %d", r.StatusCode)
	}
	r.Body.Close()
	// Malformed JSON.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/datasets", strings.NewReader("{nope"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed upload status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestNotFoundPaths(t *testing.T) {
	_, srv := newTestPortal()
	defer srv.Close()
	for _, path := range []string{"/datasets/nope/files", "/datasets/nope/files/x"} {
		r := getWithKey(t, srv.URL+path, "key-alice")
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status %d", path, r.StatusCode)
		}
		r.Body.Close()
	}
	r := getWithKey(t, srv.URL+"/datasets/nope/comments?owner_token=z", "")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("comments on missing dataset status %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestEndToEndThroughPortal(t *testing.T) {
	// The full single-blind loop: generate, anonymize, screen-pass,
	// upload, researcher fetches and parses.
	s, srv := newTestPortal()
	defer srv.Close()
	files := anonymizedFiles(t)
	id, tok, problems := s.Upload("e2e", files)
	if len(problems) != 0 {
		t.Fatalf("screen rejected anonymized corpus: %v", problems)
	}
	if id == "" || tok == "" {
		t.Fatal("missing id/token")
	}
	d, ok := s.Dataset(id)
	if !ok || len(d.Files) != len(files) {
		t.Fatal("dataset not stored")
	}
}
