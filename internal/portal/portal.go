// Package portal implements the clearinghouse the paper's §7 sets as the
// goal of the work: a single-blind portal through which network owners
// publish anonymized configurations and researchers access them, with a
// blinding function relaying comments between researchers and the
// anonymous owners.
//
// The flow:
//
//   - An owner uploads a dataset of anonymized configs (POST /datasets).
//     The portal screens the upload for signs of un-anonymized data
//     (surviving comments, banner text, well-known ISP names) and rejects
//     suspicious uploads — the owner stays anonymous; the response carries
//     an owner token for later blind correspondence.
//   - Researchers (authenticated by API key) list datasets
//     (GET /datasets), fetch files (GET /datasets/{id}/files/{name}), and
//     post comments (POST /datasets/{id}/comments).
//   - The owner polls the comment thread with the owner token and replies
//     through the same blinding endpoint; neither side learns the other's
//     identity.
package portal

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confanon"
	"confanon/internal/jobs"
	"confanon/internal/metrics"
	"confanon/internal/trace"
)

// Limits bounds what the portal accepts. The serving side of the paper's
// clearinghouse is fail-closed too: an upload the portal cannot afford to
// screen completely is rejected, not waved through.
type Limits struct {
	// MaxBodyBytes caps any request body (enforced with
	// http.MaxBytesReader before JSON decoding starts).
	MaxBodyBytes int64
	// MaxFiles caps the number of files in one dataset.
	MaxFiles int
	// MaxFileBytes caps one file's size.
	MaxFileBytes int
	// MaxTotalBytes caps a dataset's cumulative file bytes.
	MaxTotalBytes int64
	// MaxScreenBytes caps how many bytes Screen scans before giving up;
	// a dataset that exhausts the budget is rejected (fail closed), so a
	// giant upload cannot wedge the handler.
	MaxScreenBytes int64
	// MaxCommentBytes caps one comment's text.
	MaxCommentBytes int
}

// DefaultLimits returns the portal's conservative defaults.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes:    32 << 20, // 32 MiB of JSON per request
		MaxFiles:        4096,
		MaxFileBytes:    4 << 20,  // one router config is KBs, allow 4 MiB
		MaxTotalBytes:   24 << 20, // dataset payload under the body cap
		MaxScreenBytes:  24 << 20,
		MaxCommentBytes: 64 << 10,
	}
}

// Dataset is one uploaded corpus of anonymized configurations.
type Dataset struct {
	ID       string            `json:"id"`
	Label    string            `json:"label"` // owner-chosen, e.g. "backbone, 40 routers"
	Uploaded time.Time         `json:"uploaded"`
	Files    map[string]string `json:"-"`
	// ownerToken authenticates the anonymous owner for the blind
	// comment thread; never serialized to researchers.
	ownerToken string
}

// Comment is one message in a dataset's blind thread.
type Comment struct {
	From string    `json:"from"` // "researcher" or "owner" — identities are blinded
	Text string    `json:"text"`
	At   time.Time `json:"at"`
}

// Screen checks a file set for signs that anonymization was skipped or
// incomplete; it returns the list of problems (empty = acceptable). The
// portal cannot verify a cryptographic property without the owner's salt,
// so this is a heuristic gatekeeper: surviving free-text comments,
// banner bodies, description lines, or well-known ISP names indicate raw
// configs. Scanning is capped at DefaultLimits().MaxScreenBytes; see
// ScreenLimited.
func Screen(files map[string]string) []string {
	return ScreenLimited(files, DefaultLimits().MaxScreenBytes)
}

// ScreenLimited is Screen with an explicit scan budget in bytes. The
// budget makes the gatekeeper fail closed under load: a dataset too big
// to screen completely is rejected with an explanatory problem rather
// than accepted unscreened (and the handler never spends unbounded CPU
// on one upload). A budget <= 0 means unlimited.
func ScreenLimited(files map[string]string, maxBytes int64) []string {
	var problems []string
	add := func(name, format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf("%s: %s", name, fmt.Sprintf(format, args...)))
	}
	var scanned int64
	ispNames := []string{"uunet", "sprintlink", "globalcrossing", "level3", "genuity"}
	// Iterate in sorted order so the budget cuts deterministically.
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		text := files[name]
		if maxBytes > 0 {
			if scanned += int64(len(text)); scanned > maxBytes {
				add(name, "screening budget exhausted (%d bytes scanned, cap %d): dataset too large to screen, rejected", scanned, maxBytes)
				return problems
			}
		}
		inBanner := false
		var delim byte
		for i, line := range strings.Split(text, "\n") {
			trimmed := strings.TrimSpace(line)
			if inBanner {
				if delim != 0 && strings.IndexByte(line, delim) >= 0 {
					inBanner = false
					continue
				}
				if trimmed != "" {
					add(name, "line %d: banner body survives anonymization", i+1)
					inBanner = false
				}
				continue
			}
			f := strings.Fields(trimmed)
			if len(f) == 0 {
				continue
			}
			switch {
			case f[0] == "banner":
				inBanner = true
				delim = 0
				if len(f) >= 3 && len(f[2]) > 0 {
					delim = f[2][0]
				}
			case strings.HasPrefix(trimmed, "! ") && len(f) > 1:
				add(name, "line %d: free-text comment survives", i+1)
			case f[0] == "description" || (len(f) > 2 && f[0] == "neighbor" && f[2] == "description"):
				add(name, "line %d: description line survives", i+1)
			default:
				lower := strings.ToLower(trimmed)
				for _, isp := range ispNames {
					if strings.Contains(lower, isp) {
						add(name, "line %d: well-known network name %q survives", i+1, isp)
					}
				}
			}
			if len(problems) > 20 {
				return problems // enough evidence
			}
		}
	}
	return problems
}

// Store holds the portal state. Safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	comments map[string][]Comment
	// apiKeys maps researcher API keys to display handles (handles are
	// internal; the blind thread never shows them to owners).
	apiKeys map[string]string
	// rulePacks is the admin-registered allowlist of declarative rule
	// packs, by pack name; uploads and jobs may reference only these
	// (see rulepacks.go).
	rulePacks map[string]*confanon.RulePack
	limits    Limits
	// slogger receives the structured request log and recovered-panic
	// reports (nil means slog.Default()).
	slogger *slog.Logger
	// reg, requests, latency are the observability wiring (SetMetrics);
	// adminToken gates GET /metrics and /debug/pprof/* (SetAdminToken).
	// All are configured before serving, like limits and slogger.
	reg        *metrics.Registry
	requests   *metrics.CounterVec
	latency    *metrics.Histogram
	adminToken string
	// anon holds the per-owner-salt anonymization sessions behind
	// POST /datasets/raw (see session.go).
	anon *anonSessions
	// jobs is the async submission queue behind POST /jobs (nil until
	// StartJobs); tracer feeds it job spans; ready gates /readyz — false
	// until startup replay finishes and again once draining begins. All
	// three are configured before serving (see jobs.go).
	jobs   *jobs.Queue
	tracer *trace.Tracer
	ready  atomic.Bool
	// jobRunner overrides the job executor (tests saturate the queue
	// with a blocking stub); nil means the real anonymization runner.
	jobRunner jobs.Runner
}

// NewStore creates an empty portal store with DefaultLimits.
func NewStore() *Store {
	return &Store{
		datasets:  make(map[string]*Dataset),
		comments:  make(map[string][]Comment),
		apiKeys:   make(map[string]string),
		rulePacks: make(map[string]*confanon.RulePack),
		limits:    DefaultLimits(),
		anon:      newAnonSessions(),
	}
}

// SetStateDir enables durable per-owner mapping ledgers under dir: the
// raw-upload path commits each owner's mapping delta at every clean
// file boundary, and a restarted Store pointed at the same directory
// replays every owner's committed mappings on that owner's first upload
// — uploads before and after a restart (or crash) anonymize under one
// consistent mapping. Call before serving. The directory holds
// cleartext-derived values; it is as sensitive as the owners' salts.
func (s *Store) SetStateDir(dir string) { s.anon.stateDir = dir }

// Close stops the job queue (if started) and then flushes and closes
// the per-owner mapping ledgers — in that order, so no worker touches a
// ledger after it closes. Call on shutdown, after the server has
// drained; servers wanting running jobs to finish call DrainJobs first.
func (s *Store) Close() error {
	if s.jobs != nil {
		s.ready.Store(false)
		s.jobs.Close()
	}
	return s.anon.close()
}

// SetLimits replaces the store's limits (call before serving).
func (s *Store) SetLimits(l Limits) { s.limits = l }

// Limits returns the store's active limits.
func (s *Store) Limits() Limits { return s.limits }

// SetSlogger directs the structured request log and panic reports (nil
// restores slog.Default()). The portal logs with fields — request id,
// owner, route, status, duration — so any slog.Handler can route them.
func (s *Store) SetSlogger(l *slog.Logger) { s.slogger = l }

func (s *Store) slog() *slog.Logger {
	if s.slogger != nil {
		return s.slogger
	}
	return slog.Default()
}

// AddResearcher registers an API key for a researcher account.
func (s *Store) AddResearcher(key, handle string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apiKeys[key] = handle
}

func randomID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("portal: no entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// checkLimits enforces the dataset-shape caps (count and sizes) before
// any content is scanned.
func (s *Store) checkLimits(files map[string]string) []string {
	l := s.limits
	var problems []string
	if l.MaxFiles > 0 && len(files) > l.MaxFiles {
		problems = append(problems, fmt.Sprintf("dataset has %d files, cap is %d", len(files), l.MaxFiles))
		return problems
	}
	var total int64
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		size := len(files[n])
		total += int64(size)
		if l.MaxFileBytes > 0 && size > l.MaxFileBytes {
			problems = append(problems, fmt.Sprintf("%s: %d bytes, per-file cap is %d", n, size, l.MaxFileBytes))
		}
	}
	if l.MaxTotalBytes > 0 && total > l.MaxTotalBytes {
		problems = append(problems, fmt.Sprintf("dataset is %d bytes, cap is %d", total, l.MaxTotalBytes))
	}
	return problems
}

// Upload screens and stores a dataset, returning its public id and the
// owner's secret token. The files map is copied: later mutation by the
// caller cannot alter what researchers are served.
func (s *Store) Upload(label string, files map[string]string) (id, ownerToken string, problems []string) {
	if problems = s.checkLimits(files); len(problems) > 0 {
		return "", "", problems
	}
	if problems = ScreenLimited(files, s.limits.MaxScreenBytes); len(problems) > 0 {
		return "", "", problems
	}
	copied := make(map[string]string, len(files))
	for n, text := range files {
		copied[n] = text
	}
	d := &Dataset{
		ID:         randomID(),
		Label:      label,
		Uploaded:   time.Now().UTC(),
		Files:      copied,
		ownerToken: randomID(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[d.ID] = d
	return d.ID, d.ownerToken, nil
}

// Datasets lists stored datasets, newest first.
func (s *Store) Datasets() []*Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uploaded.After(out[j].Uploaded) })
	return out
}

// Dataset fetches one dataset by id.
func (s *Store) Dataset(id string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[id]
	return d, ok
}

// AddComment appends a blinded message to a dataset's thread.
func (s *Store) AddComment(id, from, text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.comments[id] = append(s.comments[id], Comment{From: from, Text: text, At: time.Now().UTC()})
}

// Comments returns a dataset's thread.
func (s *Store) Comments(id string) []Comment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Comment(nil), s.comments[id]...)
}

// Handler builds the HTTP API, wrapped in the hardening middleware:
// request-id assignment (outermost, so every log line and metric
// exemplar carries the id), panic recovery (a handler panic becomes a
// logged 500, not a dead connection or a crashed portal), and
// structured request logging.
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets", s.handleUpload)
	mux.HandleFunc("POST /datasets/raw", s.handleUploadRaw)
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /datasets", s.requireResearcher(s.handleList))
	mux.HandleFunc("GET /datasets/{id}/files", s.requireResearcher(s.handleFiles))
	mux.HandleFunc("GET /datasets/{id}/files/{name}", s.requireResearcher(s.handleFile))
	mux.HandleFunc("POST /datasets/{id}/comments", s.handlePostComment)
	mux.HandleFunc("GET /datasets/{id}/comments", s.handleGetComments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mountObservability(mux)
	return WithRequestID(withRecovery(s.slog(),
		withLogging(s.slog(), s.principal, s.withRequestMetrics(mux))))
}

// principal names the request's authenticated party for the log's owner
// field: the researcher's registered handle, or "-" for everyone else.
// Owner tokens travel in bodies and query strings the log never reads,
// so owner-authenticated requests stay "-" — anonymity holds in the
// operator's own logs.
func (s *Store) principal(r *http.Request) string {
	if h := s.researcher(r); h != "" {
		return h
	}
	return "-"
}

// handleHealthz is the liveness probe: unauthenticated, cheap, and
// content-free beyond counts (dataset contents need a researcher key).
func (s *Store) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "datasets": n})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// tokenEqual compares two secrets in constant time. An empty presented
// value never matches (a dataset with an unset token must not be
// claimable with an empty string).
func tokenEqual(presented, actual string) bool {
	if presented == "" || actual == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(presented), []byte(actual)) == 1
}

// researcher resolves the API key of a request; empty if absent/invalid.
// Every registered key is compared in constant time, with no early exit,
// so response timing reveals neither a near-miss nor how far down the
// key list a match sat.
func (s *Store) researcher(r *http.Request) string {
	key := r.Header.Get("X-API-Key")
	s.mu.RLock()
	defer s.mu.RUnlock()
	handle := ""
	for k, h := range s.apiKeys {
		if tokenEqual(key, k) {
			handle = h
		}
	}
	return handle
}

func (s *Store) requireResearcher(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.researcher(r) == "" {
			writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "researcher API key required"})
			return
		}
		h(w, r)
	}
}

type uploadRequest struct {
	Label string            `json:"label"`
	Files map[string]string `json:"files"`
}

type uploadResponse struct {
	ID         string   `json:"id,omitempty"`
	OwnerToken string   `json:"owner_token,omitempty"`
	Problems   []string `json:"problems,omitempty"`
}

func (s *Store) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.limits.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
	}
	var req uploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed JSON: " + err.Error()})
		return
	}
	if len(req.Files) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "no files"})
		return
	}
	id, tok, problems := s.Upload(req.Label, req.Files)
	if len(problems) > 0 {
		writeJSON(w, http.StatusUnprocessableEntity, uploadResponse{Problems: problems})
		return
	}
	writeJSON(w, http.StatusCreated, uploadResponse{ID: id, OwnerToken: tok})
}

type datasetInfo struct {
	ID       string    `json:"id"`
	Label    string    `json:"label"`
	Uploaded time.Time `json:"uploaded"`
	Files    int       `json:"files"`
}

func (s *Store) handleList(w http.ResponseWriter, r *http.Request) {
	var out []datasetInfo
	for _, d := range s.Datasets() {
		out = append(out, datasetInfo{ID: d.ID, Label: d.Label, Uploaded: d.Uploaded, Files: len(d.Files)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Store) handleFiles(w http.ResponseWriter, r *http.Request) {
	d, ok := s.Dataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such dataset"})
		return
	}
	names := make([]string, 0, len(d.Files))
	for n := range d.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

func (s *Store) handleFile(w http.ResponseWriter, r *http.Request) {
	d, ok := s.Dataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such dataset"})
		return
	}
	text, ok := d.Files[r.PathValue("name")]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such file"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(text))
}

type commentRequest struct {
	Text       string `json:"text"`
	OwnerToken string `json:"owner_token,omitempty"`
}

// handlePostComment accepts a message from either side of the blind: a
// researcher (API key) or the dataset owner (owner token). The stored
// attribution is only the role, never an identity.
func (s *Store) handlePostComment(w http.ResponseWriter, r *http.Request) {
	d, ok := s.Dataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such dataset"})
		return
	}
	if s.limits.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)
	}
	var req commentRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || strings.TrimSpace(req.Text) == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "comment text required"})
		return
	}
	if s.limits.MaxCommentBytes > 0 && len(req.Text) > s.limits.MaxCommentBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("comment exceeds %d bytes", s.limits.MaxCommentBytes)})
		return
	}
	var from string
	switch {
	case tokenEqual(req.OwnerToken, d.ownerToken):
		from = "owner"
	case s.researcher(r) != "":
		from = "researcher"
	default:
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "researcher key or owner token required"})
		return
	}
	s.AddComment(d.ID, from, req.Text)
	writeJSON(w, http.StatusCreated, map[string]string{"status": "posted", "as": from})
}

// handleGetComments returns the thread to either side of the blind.
func (s *Store) handleGetComments(w http.ResponseWriter, r *http.Request) {
	d, ok := s.Dataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such dataset"})
		return
	}
	if s.researcher(r) == "" && !tokenEqual(r.URL.Query().Get("owner_token"), d.ownerToken) {
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "researcher key or owner token required"})
		return
	}
	writeJSON(w, http.StatusOK, s.Comments(d.ID))
}
