package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-2) // rollback path
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.Gauge("x_total", "")
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("files_total", "files by status", "status")
	v.With("ok").Add(3)
	v.With("failed").Inc()
	if v.With("ok").Value() != 3 || v.With("failed").Value() != 1 {
		t.Fatal("labeled counters diverged")
	}
	// Ambiguous concatenations must stay distinct.
	v2 := r.CounterVec("pair_total", "", "a", "b")
	v2.With("x", "yz").Inc()
	if v2.With("xy", "z").Value() != 0 {
		t.Fatal(`("x","yz") collided with ("xy","z")`)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", 0.1, 1, 10)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.5 + 5 + 50 + 0.05; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("size", "sampled", func() float64 { return n })
	r.CounterFunc("seen_total", "sampled", func() float64 { return 2 * n })
	r.CounterVec("by_rule_total", "sampled", "rule").WithFunc(func() float64 { return 3 * n }, "R1")
	n = 42
	for id, want := range map[string]float64{"size": 42, "seen_total": 84, `by_rule_total{rule="R1"}`: 126} {
		if got := r.Counters()[id]; got != want {
			t.Errorf("%s sampled %v, want %v", id, got, want)
		}
	}
	// Sampled counters keep the counter type and print as integers.
	n = 1e6
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE seen_total counter", "seen_total 2000000\n", `by_rule_total{rule="R1"} 3000000` + "\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, b.String())
		}
	}
}

func TestSharedCreatesOncePerKey(t *testing.T) {
	r := NewRegistry()
	type key struct{}
	calls := 0
	mk := func() any { calls++; return r.Counter("made_total", "") }
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = r.Shared(key{}, mk)
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("mk ran %d times, want 1", calls)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("Shared returned different values for one key")
		}
	}
	if other := r.Shared("another key", func() any { return 7 }); other != 7 {
		t.Errorf("Shared under a second key = %v, want 7", other)
	}
}

func TestSnapshotRoundTripsThroughText(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "help with \"quotes\"").Add(7)
	r.CounterVec("lv_total", "", "kind", "file").With("leak", `a"b\c`).Add(2)
	r.Histogram("dur_seconds", "", 0.5, 2).Observe(1)
	r.Gauge("g", "").Set(-4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, b.String())
	}
	want := r.Counters()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d series, want %d", len(parsed), len(want))
	}
	for id, v := range want {
		got, ok := parsed[id]
		if !ok {
			t.Errorf("scrape missing series %s", id)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("series %s: scrape %v, report %v", id, got, v)
		}
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			h := r.Histogram("h_seconds", "")
			v := r.CounterVec("vec_total", "", "w")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				v.With("a").Inc()
				v.With("b").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	vec := r.CounterVec("vec_total", "", "w")
	if vec.With("a").Value() != 8000 || vec.With("b").Value() != 8000 {
		t.Fatal("labeled counters lost increments")
	}
}

func TestSampleID(t *testing.T) {
	s := Sample{Name: "m", Labels: map[string]string{"b": "2", "a": "1"}}
	if got := s.ID(); got != `m{a="1",b="2"}` {
		t.Fatalf("ID = %q", got)
	}
	if got := (Sample{Name: "m"}).ID(); got != "m" {
		t.Fatalf("unlabeled ID = %q", got)
	}
}

func TestCounterExemplar(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "code")
	c := v.With("200")
	c.Inc()

	// No exemplar yet: the series renders without a comment.
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "# exemplar") {
		t.Fatalf("exemplar comment before any was set:\n%s", buf.String())
	}

	c.SetExemplar(`request_id="abc123"`)
	if got := c.Exemplar(); got != `request_id="abc123"` {
		t.Fatalf("Exemplar() = %q", got)
	}
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# exemplar req_total{code="200"} request_id="abc123"`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
	}

	// The exemplar is a comment: parsing, snapshots, and values are
	// unaffected by it.
	parsed, err := ParseText(buf.String())
	if err != nil {
		t.Fatalf("exposition with exemplar no longer parses: %v", err)
	}
	if parsed[`req_total{code="200"}`] != 1 {
		t.Fatalf("parsed value = %v, want 1", parsed[`req_total{code="200"}`])
	}

	// Clearing removes the comment again.
	c.SetExemplar("")
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "# exemplar") {
		t.Fatalf("exemplar comment survived clearing:\n%s", buf.String())
	}
}
