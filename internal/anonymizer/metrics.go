package anonymizer

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"confanon/internal/metrics"
	"confanon/internal/store"
)

// The metrics bridge: one book per registry. The engine keeps its
// counters in the plain Stats value (one non-atomic increment per event)
// and merges the signed delta since the last flush into its Session at
// file boundaries. A Session wired to a metrics.Registry adds the same
// delta, with Stats.Add, into that registry's book: one Stats-typed
// accumulator per registry, shared by every Session wired to it. The
// registry reads the book through sampled counter series when it is
// scraped or a run report is built, so every event is counted once, in
// Stats, and no count is pushed into a registry instrument.
//
// Because the delta is signed, a fault-isolation rollback (fault.go) is
// followed by a negative flush and the book tracks exactly what Stats
// reports — counters describe only files that completed, the contract
// the batch API documents. Stream byte counts are moved into the book
// at the same flush but never rolled back: they measure I/O done.
//
// The book holds no Session, so a finished Session is collectable while
// the registry lives on. Two kinds of source are not in Stats:
//
//   - The IP mapper is per Session: each flush advances the book by the
//     mapper's growth since that Session last booked it (bookMapper).
//   - The rewrite memo and the ASN permutation are per Program: the book
//     remembers each distinct Program wired to it and sums their
//     counters at scrape time, once per Program however many Sessions
//     it has.

// statScalars is the single table tying each Stats scalar to its metric
// name; newBook registers one sampled series per row.
var statScalars = []struct {
	name, help string
	field      func(*Stats) *int64
}{
	{"confanon_files_processed_total", "files processed to completion by the engine (failed files are rolled back)",
		func(s *Stats) *int64 { return &s.Files }},
	{"confanon_lines_total", "configuration lines processed",
		func(s *Stats) *int64 { return &s.Lines }},
	{"confanon_words_total", "words tokenized across all lines",
		func(s *Stats) *int64 { return &s.WordsTotal }},
	{"confanon_comment_words_removed_total", "words removed with comment text (§4.2 C rules)",
		func(s *Stats) *int64 { return &s.CommentWordsRemoved }},
	{"confanon_comment_lines_removed_total", "whole comment lines removed",
		func(s *Stats) *int64 { return &s.CommentLinesRemoved }},
	{"confanon_tokens_hashed_total", "tokens replaced by the salted hash (§4.1)",
		func(s *Stats) *int64 { return &s.TokensHashed }},
	{"confanon_tokens_passed_total", "tokens passed through via the pass-list",
		func(s *Stats) *int64 { return &s.TokensPassed }},
	{"confanon_ips_mapped_total", "IP address occurrences rewritten (§4.3)",
		func(s *Stats) *int64 { return &s.IPsMapped }},
	{"confanon_asns_mapped_total", "ASN occurrences rewritten (§4.4)",
		func(s *Stats) *int64 { return &s.ASNsMapped }},
	{"confanon_communities_mapped_total", "community attribute occurrences rewritten",
		func(s *Stats) *int64 { return &s.CommunitiesMapped }},
	{"confanon_regexps_rewritten_total", "BGP regexps rewritten through the language mapping",
		func(s *Stats) *int64 { return &s.RegexpsRewritten }},
	{"confanon_regexps_unchanged_total", "BGP regexps left unchanged (no public ASNs in language)",
		func(s *Stats) *int64 { return &s.RegexpsUnchanged }},
	{"confanon_regexp_fallbacks_total", "BGP regexps replaced by the conservative fallback",
		func(s *Stats) *int64 { return &s.RegexpFallbacks }},
}

// Pipeline stages observed into confanon_stage_seconds.
const (
	stagePrescan    = "prescan"
	stageRewrite    = "rewrite"
	stageLeakReport = "leakreport"
)

// book is one registry's engine accumulator (see the top of this file).
// Any number of flushing workers add into it while the sampled series
// read it; stats is merged with Stats.Add's atomic adds.
type book struct {
	stats     Stats
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	ipEntries atomic.Int64
	ipRemaps  atomic.Int64

	// Latency and leak findings are observations, not Stats counts; the
	// engine records them straight into these instruments.
	stageSeconds *metrics.HistogramVec
	leaks        *metrics.CounterVec

	reg   *metrics.Registry
	mu    sync.Mutex
	progs []*Program // distinct Programs wired, for the Program-wide sources
	rules int        // rule-registry prefix whose series are registered
}

// bookKey keys the book in metrics.Registry.Shared.
type bookKey struct{}

// bookFor returns the registry's book, creating and registering it on
// first use.
func bookFor(reg *metrics.Registry) *book {
	return reg.Shared(bookKey{}, func() any { return newBook(reg) }).(*book)
}

func newBook(reg *metrics.Registry) *book {
	b := &book{reg: reg}
	for _, sc := range statScalars {
		reg.CounterFunc(sc.name, sc.help, sampleStat(sc.field(&b.stats)))
	}
	reg.CounterFunc("confanon_stream_bytes_in_total", "bytes read by the streaming path", sample(b.bytesIn.Load))
	reg.CounterFunc("confanon_stream_bytes_out_total", "bytes written by the streaming path", sample(b.bytesOut.Load))
	reg.CounterFunc("confanon_ipmap_entries_total", "distinct addresses resolved by the IP mapping", sample(b.ipEntries.Load))
	reg.CounterFunc("confanon_ipmap_remaps_total", "IP collision-chase steps (§4.3 special-range remapping)", sample(b.ipRemaps.Load))
	reg.CounterFunc("confanon_asn_cycle_walks_total", "ASN permutation cycle-walking steps (§4.4)", sample(b.perProgram((*Program).CycleWalks)))
	reg.CounterFunc("confanon_cregex_cache_hits_total", "regexp rewrites answered from the compiled Program's memo", sample(b.perProgram((*Program).CacheHits)))
	reg.CounterFunc("confanon_cregex_cache_misses_total", "regexp rewrites computed and memoized by the compiled Program", sample(b.perProgram((*Program).CacheMisses)))
	b.stageSeconds = reg.HistogramVec("confanon_stage_seconds", "per-file pipeline stage latency", nil, "stage")
	b.leaks = reg.CounterVec("confanon_leaks_total", "leak-report findings by token kind and severity", "kind", "severity")
	return b
}

// sample adapts a count source to a sampled series.
func sample(load func() int64) func() float64 {
	return func() float64 { return float64(load()) }
}

// sampleStat samples one field of the book's Stats.
func sampleStat(p *int64) func() float64 {
	return sample(func() int64 { return atomic.LoadInt64(p) })
}

// perProgram sums a Program-wide counter over the distinct Programs
// wired to the book.
func (b *book) perProgram(get func(*Program) int64) func() int64 {
	return func() int64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		var n int64
		for _, p := range b.progs {
			n += get(p)
		}
		return n
	}
}

// wire records p as a source of the Program-wide series and registers
// the per-rule series of every rule the registry knows by now — the
// built-in taxonomy plus the rules of any pack compiled so far, which
// includes p's own.
func (b *book) wire(p *Program) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !slices.Contains(b.progs, p) {
		b.progs = append(b.progs, p)
	}
	infos := ruleReg.Load().infos
	if b.rules == len(infos) {
		return
	}
	hits := b.reg.CounterVec("confanon_rule_hits_total", "context-rule firings by registry rule", "rule")
	times := b.reg.CounterVec("confanon_rule_time_ns_total", "wall time attributed to each rule, nanoseconds", "rule")
	for i := b.rules; i < len(infos); i++ {
		hits.WithFunc(sampleStat(&b.stats.ruleHits[i]), string(infos[i].ID))
		times.WithFunc(sampleStat(&b.stats.ruleTimeNs[i]), string(infos[i].ID))
	}
	b.rules = len(infos)
}

// flush reconciles the worker into the shared halves: the signed Stats
// delta since the last flush merges into the Session totals (and the
// book, when wired) and the pending leak-recorder entries publish into
// the Session recorder. Deltas are signed, so a rollback flush backs a
// failed file's partial counts out of both destinations. An unwired
// Session pays the one nil check.
func (a *Anonymizer) flush() {
	delta := a.stats.diff(a.synced)
	a.synced = a.stats
	a.sess.stats.Add(delta)
	a.flushRecorder()
	if b := a.sess.book; b != nil {
		b.stats.Add(delta)
		b.bytesIn.Add(a.bytesIn)
		b.bytesOut.Add(a.bytesOut)
		a.bytesIn, a.bytesOut = 0, 0
		a.sess.bookMapper(b)
	}
}

// flushRecorder publishes the worker's pending leak-recorder entries
// into the Session recorder and clears the pending maps. Entries are
// only ever added, never retracted: an aborted file can widen later
// leak reports but never narrow them. When a durable ledger is attached,
// each genuinely new key (detected under recMu, so exactly one worker
// records it) is queued for the next clean-boundary commit.
func (a *Anonymizer) flushRecorder() {
	if len(a.seenASNs) == 0 && len(a.seenWords) == 0 && len(a.seenIPs) == 0 {
		return
	}
	s := a.sess
	led := s.ledgerOn.Load()
	var recs []store.Record
	s.recMu.Lock()
	for k := range a.seenASNs {
		if led && !s.seenASNs[k] {
			recs = append(recs, store.Record{T: store.TASN, V: k})
		}
		s.seenASNs[k] = true
	}
	for k := range a.seenWords {
		if led && !s.seenWords[k] {
			recs = append(recs, store.Record{T: store.TWord, V: k})
		}
		s.seenWords[k] = true
	}
	for k := range a.seenIPs {
		if led && !s.seenIPs[k] {
			recs = append(recs, store.Record{T: store.TOrigIP, In: k})
		}
		s.seenIPs[k] = true
	}
	s.recMu.Unlock()
	s.appendLedgerRecords(recs)
	clear(a.seenASNs)
	clear(a.seenWords)
	clear(a.seenIPs)
}

// observeStage records one stage latency when a registry is wired, and
// the matching retroactive stage span when a tracer is.
func (a *Anonymizer) observeStage(stage string, d time.Duration) {
	if b := a.sess.book; b != nil {
		b.stageSeconds.With(stage).ObserveDuration(d)
	}
	if a.tracer != nil {
		a.traceStage(stage, d)
	}
}

// countLeaks tallies one leak report's findings by kind and severity.
// Cumulative across report runs: calling LeakReport twice on the same
// text counts its findings twice, mirroring the RuleLeakHighlight hit
// counter.
func (a *Anonymizer) countLeaks(leaks []Leak) {
	b := a.sess.book
	if b == nil {
		return
	}
	for _, l := range leaks {
		sev := "confirmed"
		if l.LikelyFalsePositive {
			sev = "likely_false_positive"
		}
		b.leaks.With(l.Kind, sev).Inc()
	}
}
