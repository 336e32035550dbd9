package anonymizer

import (
	"strings"

	"confanon/internal/asn"
	"confanon/internal/cregex"
	"confanon/internal/ipanon"
	"confanon/internal/passlist"
	"confanon/internal/rulepack"
	"confanon/internal/trace"
)

// Options configures an Anonymizer.
type Options struct {
	// Salt is the network owner's secret. Everything keyed — the word
	// hash, the IP mapping tree, the ASN and community permutations —
	// derives from it, so one salt reproduces one consistent mapping.
	Salt []byte
	// KeepComments disables comment stripping (for measurement only; the
	// paper strips all comments unconditionally).
	KeepComments bool
	// Style selects alternation (paper default) or minimal-DFA output
	// for rewritten regexps.
	Style cregex.Style
	// PassList overrides the built-in pass-list.
	PassList *passlist.List
	// RulePacks are additional declarative rule packs (parsed and
	// validated by internal/rulepack) merged into the Program's dispatch
	// inventory ahead of the built-ins. Merge failures — duplicate rule
	// IDs across packs, unresolvable builtin references — panic in
	// Compile and are reported by CompileChecked.
	RulePacks []*rulepack.Pack
	// StatelessIP selects the cryptographic (Crypto-PAn) IP scheme
	// instead of the shaped tree. It gives up class and subnet-address
	// preservation in exchange for a mapping that depends only on the
	// salt — the §4.3 trade-off — which is what makes independent
	// anonymizer instances consistent with each other and therefore
	// parallelizable (and single-pass streamable: see StreamText).
	StatelessIP bool
	// Tracer, when set, records a hierarchical span trace (corpus →
	// file → stage → rule) and a provenance ledger of every
	// anonymization decision. The ledger carries only anonymized
	// replacements, never cleartext (trace.go); nil — the default —
	// keeps the hot path free of any tracing cost.
	Tracer *trace.Tracer
}

// Anonymizer is one single-goroutine worker of a Session: it rewrites
// configuration text through the Session's shared state (the IP mapping,
// the leak recorder) while keeping its hot-path scratch — statistics,
// pending recorder entries, dispatch context — private, reconciling into
// the Session at file boundaries (flush). One worker is not safe for
// concurrent use, but any number of workers of the same Session may run
// concurrently (Session.Acquire/Release); New returns a Session-bound
// worker for the common single-goroutine case.
type Anonymizer struct {
	prog *Program
	sess *Session

	// Immutable snapshots from the Program (opts/pass/perms/rules) and
	// the Session (ip, sensitiveTokens; refreshed on Acquire).
	opts  Options
	pass  *passlist.List
	ip    ipanon.Mapper
	perms asn.Salted
	rules *ruleSet

	// lineShield holds values a pack line rule produced on the current
	// line; the generic pass leaves them alone (see pack.go). Nil until
	// a pack rule first fires — the no-pack hot path never touches it.
	lineShield map[string]bool

	// stats is the worker-local cumulative record; synced is its state at
	// the last flush, so flush applies only the signed delta to the
	// Session (and the wired registry's book).
	stats  Stats
	synced Stats

	// Engine scratch: the per-line rule-hit record (registry indices,
	// for wall-time attribution) and the reusable dispatch context.
	lineHits []int
	ctx      lineCtx

	// bytesIn/bytesOut accumulate streaming throughput until the next
	// flush moves them into a wired registry's book (not part of Stats:
	// they measure I/O work done, so they are not rolled back with a
	// failed file's counters).
	bytesIn  int64
	bytesOut int64

	// Fault-isolation scratch: the file name and 1-based line currently
	// being processed, recorded so a recovered panic can be pinned to a
	// location (fault.go).
	curFile string
	curLine int

	// Tracing state (trace.go): the Session's tracer (nil = untraced),
	// the batch-level corpus span this worker's file spans nest under,
	// the open file span with its rule-counter baselines, the buffered
	// provenance decisions of the file in flight, and the last rule that
	// fired on the current line (ledger attribution).
	tracer     *trace.Tracer
	corpusSpan trace.SpanID
	fileSpan   *trace.Span
	fileHits   [maxRules]int64
	fileTime   [maxRules]int64
	pending    []trace.Decision
	curRule    RuleID

	// Leak recorder (§6.1), pending half: every public ASN, hashed word,
	// and mapped original address this worker has seen since its last
	// flush. Published into the Session's recorder at file boundaries;
	// never retracted (an aborted file can only widen later leak reports,
	// matching the fail-closed direction).
	seenASNs  map[string]bool
	seenWords map[string]bool
	seenIPs   map[uint32]bool

	// sensitiveTokens is the worker's read-only snapshot of the Session's
	// operator-added rules (copy-on-write there; refreshed on Acquire).
	sensitiveTokens map[string]bool
}

// New creates a single-worker Session for one owner salt and returns its
// bound worker — the convenience constructor for serial use. Callers
// that share one mapping across goroutines should Compile a Program,
// derive a Session, and Acquire workers instead.
func New(opts Options) *Anonymizer {
	return Compile(opts).NewSession().Bind()
}

// Session returns the Session this worker reconciles into.
func (a *Anonymizer) Session() *Session { return a.sess }

// Stats returns the accumulated counters: the Session's merged record,
// with this worker's unflushed partials reconciled first.
func (a *Anonymizer) Stats() Stats {
	a.flush()
	return a.sess.Stats()
}

// IPMapping exposes the resolved IP pairs (for validation tooling).
func (a *Anonymizer) IPMapping() []ipanon.Pair { return a.ip.Mapping() }

// SaveMapping serializes the IP mapping state so a later run (same salt)
// can anonymize additional configurations consistently with this one.
// Only the shaped tree carries state; under StatelessIP the mapping is a
// pure function of the salt and the snapshot is empty.
func (a *Anonymizer) SaveMapping() []byte { return a.sess.SaveMapping() }

// LoadMapping restores a snapshot produced by SaveMapping. It must be
// called before any anonymization and with the same salt; an error is
// returned when the snapshot does not replay to the same mapping.
func (a *Anonymizer) LoadMapping(snapshot []byte) error {
	if err := a.sess.LoadMapping(snapshot); err != nil {
		return err
	}
	a.ip = a.sess.mapper()
	return nil
}

// MapASN exposes the ASN permutation (for validation tooling).
func (a *Anonymizer) MapASN(v uint32) uint32 { return a.perms.ASN.Map(v) }

// MapIP exposes the IP mapping (for validation tooling).
func (a *Anonymizer) MapIP(v uint32) uint32 { return a.ip.MapV4(v) }

// HashWord exposes the salted word hash (for validation tooling).
func (a *Anonymizer) HashWord(w string) string { return hashWord(a.opts.Salt, w) }

// AddSensitiveToken registers an operator-supplied rule: the literal token
// is anonymized wherever it appears from now on. This is the mechanism of
// the iterative leak-closure methodology (§6.1): lines a human flags as
// dangerous are used to add more rules to the anonymizer. The rule is
// registered Session-wide; this worker sees it immediately, other
// in-flight workers on their next Acquire.
func (a *Anonymizer) AddSensitiveToken(tok string) {
	a.sess.AddSensitiveToken(tok)
	a.sensitiveTokens = *a.sess.sensTok.Load()
}

// hit records one firing of a rule: the hit counter and the per-line
// scratch the engine uses for wall-time attribution. Registry lookup
// (one atomic load, one map read) then two array/slice writes — no map
// mutation on the per-token path.
func (a *Anonymizer) hit(r RuleID) {
	a.curRule = r
	i, ok := lookupRule(r)
	if !ok {
		return
	}
	a.stats.ruleHits[i]++
	a.lineHits = append(a.lineHits, i)
}

// AnonymizeText anonymizes one configuration file. The input is prescanned
// first so subnet addresses resolve shortest-prefix-first (see Prescan).
func (a *Anonymizer) AnonymizeText(text string) string {
	a.Prescan(text)
	lines := strings.Split(text, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1] // trailing newline artifact
	}
	out := make([]string, 0, len(lines))
	i := 0
	a.runFile(
		func() (string, bool) {
			if i >= len(lines) {
				return "", false
			}
			line := lines[i]
			i++
			return line, true
		},
		func(res string) { out = append(out, res) },
	)
	return strings.Join(out, "\n") + "\n"
}

func (a *Anonymizer) stripComments() bool { return !a.opts.KeepComments }

// countWords adds a raw line's words to the total (used for banner bodies,
// which bypass the normal Fields accounting).
func (a *Anonymizer) countWords(line string) {
	a.stats.WordsTotal += int64(len(strings.Fields(line)))
}
