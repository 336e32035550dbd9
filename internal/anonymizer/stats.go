package anonymizer

import (
	"sync/atomic"
	"time"
)

// Stats accumulates the measurements the experiments report, plus the
// engine's per-rule instrumentation.
//
// The scalar counters are exported int64 fields; the per-rule counters
// live in dense arrays indexed by registry position (ruleReg, rule.go),
// read through Hits/Time/RuleHits/RuleTime. The dense layout
// replaces the old map-backed, reflection-merged representation: Clone
// is a plain value copy (the fault layer snapshots statistics before
// every file, so this is on the batch hot path) and Add is an explicit
// field list of atomic adds, safe to call concurrently on a shared
// destination from parallel corpus workers.
//
// A reflection-driven test (stats_test.go) asserts that every field of
// Stats is one Add knows how to merge, so a counter added later still
// cannot be silently dropped — the guarantee moved from the merge to
// the test suite, taking the reflection cost off the hot path.
type Stats struct {
	Files               int64
	Lines               int64
	WordsTotal          int64
	CommentWordsRemoved int64
	CommentLinesRemoved int64
	TokensHashed        int64
	TokensPassed        int64
	IPsMapped           int64
	ASNsMapped          int64
	CommunitiesMapped   int64
	RegexpsRewritten    int64
	RegexpsUnchanged    int64
	RegexpFallbacks     int64

	// ruleHits counts how many times each registry rule fired, indexed
	// by registry position. Sized maxRules (not the current registry
	// length) so pack registrations never reallocate counter storage or
	// invalidate a Stats value already in flight; slots past the live
	// registry stay zero.
	ruleHits [maxRules]int64
	// ruleTimeNs is each rule's cumulative wall time in nanoseconds:
	// every line's processing time is attributed to the rules that fired
	// on it, proportionally to their hits on that line, so the values
	// sum to the total line-rewriting time (prescan excluded).
	ruleTimeNs [maxRules]int64
}

// newStats returns a zero Stats (kept for construction symmetry; the
// dense representation needs no map initialization).
func newStats() Stats { return Stats{} }

// Clone returns a copy of s. Arrays copy by value, so this is a single
// struct assignment; the name survives from the map era because the
// fault layer and snapshot API are written against it.
func (s Stats) Clone() Stats { return s }

// Hits returns how many times the rule fired.
func (s Stats) Hits(id RuleID) int64 {
	if i, ok := lookupRule(id); ok {
		return s.ruleHits[i]
	}
	return 0
}

// Time returns the rule's attributed cumulative wall time.
func (s Stats) Time(id RuleID) time.Duration {
	if i, ok := lookupRule(id); ok {
		return time.Duration(s.ruleTimeNs[i])
	}
	return 0
}

// RuleHits materializes the per-rule hit counts as a map (rules that
// never fired are omitted, matching the old map-backed behavior).
func (s Stats) RuleHits() map[RuleID]int64 {
	reg := ruleReg.Load()
	m := make(map[RuleID]int64)
	for i := range reg.infos {
		if n := s.ruleHits[i]; n != 0 {
			m[reg.infos[i].ID] = n
		}
	}
	return m
}

// RuleTime materializes the per-rule attributed times as a map.
func (s Stats) RuleTime() map[RuleID]time.Duration {
	reg := ruleReg.Load()
	m := make(map[RuleID]time.Duration)
	for i := range reg.infos {
		if ns := s.ruleTimeNs[i]; ns != 0 {
			m[reg.infos[i].ID] = time.Duration(ns)
		}
	}
	return m
}

// AddRuleHit adds n firings of the rule (test fixtures and the engine's
// own bookkeeping; unknown rules are ignored).
func (s *Stats) AddRuleHit(id RuleID, n int64) {
	if i, ok := lookupRule(id); ok {
		s.ruleHits[i] += n
	}
}

// AddRuleTime attributes d to the rule.
func (s *Stats) AddRuleTime(id RuleID, d time.Duration) {
	if i, ok := lookupRule(id); ok {
		s.ruleTimeNs[i] += int64(d)
	}
}

// Add accumulates other into s. Every add is atomic, so parallel corpus
// workers may merge into one shared destination concurrently; the
// source is read plainly and must not be written during the call.
// stats_test.go walks Stats with reflection and fails if a field exists
// that this list does not cover.
func (s *Stats) Add(other Stats) {
	atomic.AddInt64(&s.Files, other.Files)
	atomic.AddInt64(&s.Lines, other.Lines)
	atomic.AddInt64(&s.WordsTotal, other.WordsTotal)
	atomic.AddInt64(&s.CommentWordsRemoved, other.CommentWordsRemoved)
	atomic.AddInt64(&s.CommentLinesRemoved, other.CommentLinesRemoved)
	atomic.AddInt64(&s.TokensHashed, other.TokensHashed)
	atomic.AddInt64(&s.TokensPassed, other.TokensPassed)
	atomic.AddInt64(&s.IPsMapped, other.IPsMapped)
	atomic.AddInt64(&s.ASNsMapped, other.ASNsMapped)
	atomic.AddInt64(&s.CommunitiesMapped, other.CommunitiesMapped)
	atomic.AddInt64(&s.RegexpsRewritten, other.RegexpsRewritten)
	atomic.AddInt64(&s.RegexpsUnchanged, other.RegexpsUnchanged)
	atomic.AddInt64(&s.RegexpFallbacks, other.RegexpFallbacks)
	for i := range s.ruleHits {
		if other.ruleHits[i] != 0 {
			atomic.AddInt64(&s.ruleHits[i], other.ruleHits[i])
		}
		if other.ruleTimeNs[i] != 0 {
			atomic.AddInt64(&s.ruleTimeNs[i], other.ruleTimeNs[i])
		}
	}
}

// diff returns s minus base, field by field — the signed delta a worker
// flush applies to its Session and its registry's book. The field list mirrors Add
// (and is covered by the same reflection completeness test).
func (s Stats) diff(base Stats) Stats {
	d := Stats{
		Files:               s.Files - base.Files,
		Lines:               s.Lines - base.Lines,
		WordsTotal:          s.WordsTotal - base.WordsTotal,
		CommentWordsRemoved: s.CommentWordsRemoved - base.CommentWordsRemoved,
		CommentLinesRemoved: s.CommentLinesRemoved - base.CommentLinesRemoved,
		TokensHashed:        s.TokensHashed - base.TokensHashed,
		TokensPassed:        s.TokensPassed - base.TokensPassed,
		IPsMapped:           s.IPsMapped - base.IPsMapped,
		ASNsMapped:          s.ASNsMapped - base.ASNsMapped,
		CommunitiesMapped:   s.CommunitiesMapped - base.CommunitiesMapped,
		RegexpsRewritten:    s.RegexpsRewritten - base.RegexpsRewritten,
		RegexpsUnchanged:    s.RegexpsUnchanged - base.RegexpsUnchanged,
		RegexpFallbacks:     s.RegexpFallbacks - base.RegexpFallbacks,
	}
	for i := range s.ruleHits {
		d.ruleHits[i] = s.ruleHits[i] - base.ruleHits[i]
		d.ruleTimeNs[i] = s.ruleTimeNs[i] - base.ruleTimeNs[i]
	}
	return d
}

// snapshotAtomic reads a Stats that other goroutines are Add-ing into,
// one atomic load per field, returning a plain value. The field list
// mirrors Add.
func (s *Stats) snapshotAtomic() Stats {
	var out Stats
	out.Files = atomic.LoadInt64(&s.Files)
	out.Lines = atomic.LoadInt64(&s.Lines)
	out.WordsTotal = atomic.LoadInt64(&s.WordsTotal)
	out.CommentWordsRemoved = atomic.LoadInt64(&s.CommentWordsRemoved)
	out.CommentLinesRemoved = atomic.LoadInt64(&s.CommentLinesRemoved)
	out.TokensHashed = atomic.LoadInt64(&s.TokensHashed)
	out.TokensPassed = atomic.LoadInt64(&s.TokensPassed)
	out.IPsMapped = atomic.LoadInt64(&s.IPsMapped)
	out.ASNsMapped = atomic.LoadInt64(&s.ASNsMapped)
	out.CommunitiesMapped = atomic.LoadInt64(&s.CommunitiesMapped)
	out.RegexpsRewritten = atomic.LoadInt64(&s.RegexpsRewritten)
	out.RegexpsUnchanged = atomic.LoadInt64(&s.RegexpsUnchanged)
	out.RegexpFallbacks = atomic.LoadInt64(&s.RegexpFallbacks)
	for i := range s.ruleHits {
		out.ruleHits[i] = atomic.LoadInt64(&s.ruleHits[i])
		out.ruleTimeNs[i] = atomic.LoadInt64(&s.ruleTimeNs[i])
	}
	return out
}
