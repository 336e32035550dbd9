package anonymizer

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"confanon/internal/metrics"
)

// TestProgramRewriteCacheSingleflight pins the memo contract of the
// compiled Program's regexp-rewrite cache: when many workers of one
// Session rewrite the same pattern concurrently, the rewrite is computed
// exactly once (singleflight) and every other caller is a cache hit —
// observable both on the Program's counters and, after the workers
// flush, on the registry's cregex series.
func TestProgramRewriteCacheSingleflight(t *testing.T) {
	reg := metrics.NewRegistry()
	prog := Compile(Options{Salt: []byte("memo")})
	sess := prog.NewSession()
	sess.SetMetrics(reg)

	// One AS-path regexp and one community regexp: two cache keys (the
	// kinds are cached separately even for equal pattern strings).
	text := "ip as-path access-list 5 permit _701_\n" +
		"ip community-list 7 permit 701:.*\n"
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := sess.Acquire()
			defer sess.Release(w)
			<-start
			w.AnonymizeText(text)
		}()
	}
	close(start)
	wg.Wait()

	if got := prog.CacheMisses(); got != 2 {
		t.Errorf("cache misses = %d, want 2 (one per pattern)", got)
	}
	if got := prog.CacheHits(); got != 2*(workers-1) {
		t.Errorf("cache hits = %d, want %d", got, 2*(workers-1))
	}

	counters := reg.Counters()
	if got := counters["confanon_cregex_cache_misses_total"]; got != 2 {
		t.Errorf("registry cache-miss counter = %v, want 2", got)
	}
	if got := counters["confanon_cregex_cache_hits_total"]; got != float64(2*(workers-1)) {
		t.Errorf("registry cache-hit counter = %v, want %d", got, 2*(workers-1))
	}

	// Cache hits must still replay the permuted ASNs into each caller's
	// recorder: the session-wide leak recorder knows 701 even though only
	// one worker computed the rewrite.
	sess.recMu.RLock()
	saw := sess.seenASNs["701"]
	sess.recMu.RUnlock()
	if !saw {
		t.Error("session recorder is missing ASN 701 after cached rewrites")
	}

	// And all workers must have produced the same rewritten line.
	w := sess.Acquire()
	defer sess.Release(w)
	out := w.AnonymizeText(text)
	if strings.Contains(out, "701") {
		t.Errorf("public ASN survives in rewritten output:\n%s", out)
	}
}

// TestSessionMetricsBookProgramWideOnce pins the one-book contract for
// a registry shared by several Sessions of one Program: the Program-wide
// series (rewrite memo, ASN cycle walks) equal the Program's own
// counters — read once per Program, not re-booked from zero by every
// Session — while the Stats-backed series equal the sum of the
// Sessions' Stats.
func TestSessionMetricsBookProgramWideOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	prog := Compile(Options{Salt: []byte("one-book")})
	var b strings.Builder
	b.WriteString("ip as-path access-list 5 permit _701_\nrouter bgp 701\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, " neighbor 10.0.0.%d remote-as %d\n", i+1, 1000+i)
	}
	text := b.String()

	const sessions = 3
	var sum Stats
	for i := 0; i < sessions; i++ {
		sess := prog.NewSession()
		sess.SetMetrics(reg)
		w := sess.Acquire()
		w.AnonymizeText(text)
		sess.Release(w)
		sum.Add(sess.Stats())
	}
	if prog.CacheMisses() != 1 || prog.CacheHits() != sessions-1 {
		t.Fatalf("fixture: memo misses/hits = %d/%d, want 1/%d", prog.CacheMisses(), prog.CacheHits(), sessions-1)
	}
	if prog.CycleWalks() == 0 {
		t.Fatal("fixture: no ASN map cycle-walked")
	}

	counters := reg.Counters()
	for name, want := range map[string]int64{
		"confanon_cregex_cache_hits_total":   prog.CacheHits(),
		"confanon_cregex_cache_misses_total": prog.CacheMisses(),
		"confanon_asn_cycle_walks_total":     prog.CycleWalks(),
	} {
		if got := counters[name]; got != float64(want) {
			t.Errorf("%s = %v, want %d (the Program's own count)", name, got, want)
		}
	}
	for _, sc := range statScalars {
		if got, want := counters[sc.name], *sc.field(&sum); got != float64(want) {
			t.Errorf("%s = %v, want %d (sum of Session Stats)", sc.name, got, want)
		}
	}
	for id, n := range sum.RuleHits() {
		series := `confanon_rule_hits_total{rule="` + string(id) + `"}`
		if got := counters[series]; got != float64(n) {
			t.Errorf("%s = %v, want %d (sum of Session Stats)", series, got, n)
		}
	}
}

// TestSessionMetricsRegistryDoesNotRetainSessions: wiring a Session to a
// registry leaves it collectable — a long-lived registry sampled by a
// service must not pin every Session that ever flushed into it.
func TestSessionMetricsRegistryDoesNotRetainSessions(t *testing.T) {
	reg := metrics.NewRegistry()
	prog := Compile(Options{Salt: []byte("no-retention")})
	collected := make(chan struct{})
	var entries int64
	func() {
		sess := prog.NewSession()
		sess.SetMetrics(reg)
		w := sess.Acquire()
		w.AnonymizeText("interface Serial0\n ip address 12.1.2.3 255.255.255.0\n")
		sess.Release(w)
		entries, _ = sess.MapperCounts()
		runtime.SetFinalizer(sess, func(*Session) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			if got := reg.Counters()["confanon_ipmap_entries_total"]; got != float64(entries) {
				t.Errorf("ipmap entries = %v after the Session was collected, want %d", got, entries)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a Session wired to a live registry was never collected")
}

// TestSessionWorkersShareMapping: workers of one Session anonymizing
// different files concurrently agree on the mapping of a shared address.
func TestSessionWorkersShareMapping(t *testing.T) {
	sess := Compile(Options{Salt: []byte("shared")}).NewSession()
	text := "interface Serial0\n ip address 12.1.2.3 255.255.255.0\n"
	const workers = 8
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := sess.Acquire()
			defer sess.Release(w)
			outs[i] = w.AnonymizeText(text)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("worker %d output differs:\n%s\nvs\n%s", i, outs[i], outs[0])
		}
	}
}
