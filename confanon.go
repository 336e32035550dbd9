// Package confanon is a structure-preserving anonymizer for router
// configuration files, reproducing Maltz et al., "Structure Preserving
// Anonymization of Router Configuration Data" (IMC 2004).
//
// The anonymizer removes all information connecting a configuration to the
// identity of the originating network — free-text comments and banners,
// hostnames, credentials, public IP addresses, public AS numbers, BGP
// community attributes, and every string not known to be innocuous — while
// preserving the structure that makes the data valuable to researchers:
//
//   - IP addresses are mapped prefix-preservingly (subnet containment
//     survives), class-preservingly (classful RIP/EIGRP semantics
//     survive), and subnet-address-preservingly; netmasks, wildcard
//     masks, loopback, and multicast addresses pass through unchanged.
//   - Public ASNs are permuted; private ASNs are untouched; regexps over
//     ASNs and communities are rewritten so they accept exactly the
//     permuted language.
//   - Identifiers are hashed with a salted SHA-1, so the "uses"
//     relationships between policy definitions and references survive.
//
// Basic use:
//
//	a := confanon.New(confanon.Options{Salt: []byte("owner secret")})
//	out := a.Corpus(map[string]string{"r1-confg": text})
//	leaks := a.Leaks(out)
//
// One Anonymizer = one owner secret = one consistent mapping: feed every
// file of a network (or several networks from the same owner) through the
// same Anonymizer.
//
// The engine is split into an immutable compiled Program and a mutable
// per-owner Session. Compile builds the Program (pass-list index, rule
// tables, salt-derived permutations, memoized regexp-rewrite cache) once;
// Program.NewSession derives any number of independent Sessions from it,
// each with its own IP mapping, leak recorder, and statistics. New is the
// one-shot convenience form of Compile(...).NewSession().
package confanon

import (
	"context"
	"io"
	"sort"

	"confanon/internal/anonymizer"
	"confanon/internal/config"
	"confanon/internal/cregex"
	"confanon/internal/rulepack"
	"confanon/internal/trace"
	"confanon/internal/validate"
)

// RulePack is a parsed, validated declarative rule pack (see
// internal/rulepack for the document format). Load one with
// LoadRulePack and wire it through Options.RulePacks.
type RulePack = rulepack.Pack

// PackMeta is a rule pack's identity triple — name, version, content
// fingerprint — as threaded through RunReport and bench policy
// fingerprints.
type PackMeta = rulepack.Meta

// LoadRulePack parses and validates a rule-pack document (JSON or the
// TOML subset; the format is sniffed). The returned pack has passed
// every document-level check — schema, rule shapes, pattern
// compilation, declared fingerprint — but engine-level mergeability is
// only decided at CompileChecked (or CheckRulePack, for tooling).
func LoadRulePack(data []byte) (*RulePack, error) { return rulepack.Parse(data) }

// CheckRulePack verifies a parsed pack would compile against this
// engine build — builtin references resolve, rule IDs do not collide
// with the built-in inventory, taxonomy entries do not conflict —
// without loading anything. This is confvalidate -check-pack and the
// portal's pack-registration check.
func CheckRulePack(p *RulePack) error { return anonymizer.CheckPack(p) }

// BuiltinRulePack returns the canonical built-in inventory as a pack
// document (read-only): the same rule taxonomy the engine compiles at
// startup, exposed so tooling can diff user packs against it.
func BuiltinRulePack() *RulePack { return anonymizer.BuiltinPack() }

// RulePackSchema identifies the rule-pack document layout.
const RulePackSchema = rulepack.Schema

// Style selects the output form for rewritten regexps.
type Style = cregex.Style

// Regexp output styles.
const (
	// Alternation emits "(701|702|703)" — the paper's production form.
	Alternation = cregex.Alternation
	// Minimal emits the minimal-DFA reconstruction the paper describes
	// as an available refinement.
	Minimal = cregex.Minimal
)

// Stats is the anonymizer's measurement record. It carries per-rule hit
// counts and cumulative per-rule wall time alongside the aggregate
// counters; Stats.Add merges two records (used by ParallelCorpus).
type Stats = anonymizer.Stats

// RuleID names one rule in the engine's registry.
type RuleID = anonymizer.RuleID

// RuleInfo describes one registry rule: its ID, class, scope, and a
// one-line account of what it recognizes.
type RuleInfo = anonymizer.RuleInfo

// Rules returns the engine's rule inventory — the paper's 28 context
// rules plus documented extensions — in canonical order. Pair it with
// Stats.RuleHits and Stats.RuleTime to report per-rule activity.
func Rules() []RuleInfo { return anonymizer.Rules() }

// Leak is one suspicious token in anonymized output.
type Leak = anonymizer.Leak

// Tracer collects the span hierarchy and provenance ledger of a traced
// run (see internal/trace). Wire one through Options.Tracer, run, then
// export with Tracer.WriteJSONL. One Tracer may observe several
// Sessions; its clock and span IDs are shared across them.
type Tracer = trace.Tracer

// NewTracer returns an empty Tracer whose clock starts now.
func NewTracer() *Tracer { return trace.NewTracer() }

// TraceSchema identifies the JSONL trace layout Tracer.WriteJSONL emits
// (the first line of every trace file carries it).
const TraceSchema = trace.Schema

// Span is one timed node of a trace: corpus → file → stage → rule.
type Span = trace.Span

// Decision is one provenance ledger entry: which rule did what to one
// token of one line, and the anonymized replacement it produced. The
// ledger never records the cleartext being replaced.
type Decision = trace.Decision

// TraceFile is a parsed trace: the reader-side counterpart of a Tracer,
// with Explain and FileDecisions query helpers.
type TraceFile = trace.File

// ErrTraceSchema is returned by ReadTrace for a stream whose header
// does not carry TraceSchema — the signal for format-sniffing readers
// (cmd/conftrace) to try another parser.
var ErrTraceSchema = trace.ErrSchema

// ReadTrace parses a TraceSchema JSONL stream (as written by
// Tracer.WriteJSONL). Unknown record types are skipped; a missing or
// foreign schema header is an error.
func ReadTrace(r io.Reader) (*TraceFile, error) { return trace.ReadJSONL(r) }

// Options configures an Anonymizer.
type Options struct {
	// Salt is the network owner's secret; it keys every mapping.
	Salt []byte
	// Style selects Alternation (default) or Minimal regexp output.
	Style Style
	// KeepComments retains comment lines (measurement only — production
	// anonymization always strips them).
	KeepComments bool
	// RulePacks are additional declarative rule packs merged into the
	// compiled Program ahead of the built-ins. Pack line rules rewrite
	// and decline (the built-in pipeline still runs afterwards), so a
	// loaded pack can only strengthen the output, never weaken the
	// built-in coverage or strict gating. Merge failures — duplicate
	// rule IDs across packs, registry conflicts — panic in Compile;
	// callers loading operator-supplied packs should use CompileChecked.
	RulePacks []*RulePack
	// StatelessIP selects the Crypto-PAn IP scheme: the mapping depends
	// only on the salt (no shared table), which sacrifices class and
	// subnet-address preservation — the §4.3 trade-off. Parallel runs no
	// longer require it (the shaped tree is censused and replayed
	// deterministically); it remains the zero-shared-state option, e.g.
	// for anonymizing on machines that never exchange a mapping table.
	StatelessIP bool
	// Strict makes the batch APIs (CorpusContext, ParallelCorpusContext,
	// StreamCorpusContext) fail closed on leaks: a file whose
	// post-anonymization leak report contains confirmed
	// (non-false-positive) entries is quarantined — reported and
	// withheld — instead of published. Gating is conservative: a
	// coincidental collision between an anonymized value and some
	// original value can quarantine an innocent file, which is the safe
	// direction (review the quarantine, never the leak).
	Strict bool
	// Metrics, when set, wires the pipeline into a shared observability
	// registry: the engine books its counters into the registry at file
	// boundaries and the registry reads them when scraped, the batch
	// layer counts outcomes, and CorpusResult.Report carries the
	// flattened snapshot. Nil disables all metric plumbing (the engine
	// hot path is untouched either way; see DESIGN.md §3d).
	Metrics *MetricsRegistry
	// Tracer, when set, records the run's span hierarchy (corpus → file
	// → stage → rule) and its provenance ledger — one entry per
	// anonymization decision, carrying only the anonymized replacement,
	// never the cleartext it replaced. Nil disables all tracing at the
	// cost of one predictable branch per decision site (see DESIGN.md
	// §3f). Tracing does not alter output: a traced run is byte-identical
	// to an untraced one.
	Tracer *Tracer
}

// Program is the immutable compiled half of the anonymizer: the pass-list
// index, the rule dispatch tables, the salt-derived ASN/community
// permutations, and a memoized regexp-rewrite cache shared by everything
// derived from it. A Program is built once by Compile, is safe for
// concurrent use, and never changes afterwards; per-owner mutable state
// (the IP mapping, the leak recorder, statistics) lives in the Sessions
// it derives. Because the permutations are keyed by the salt, one Program
// corresponds to one owner secret — compile a new Program per salt, then
// derive as many Sessions from it as there are datasets to anonymize
// under that secret.
type Program struct {
	inner *anonymizer.Program
	opts  Options
}

// Compile builds the immutable Program for the given options. The
// expensive, shareable work — pass-list indexing, rule-table wiring,
// permutation key derivation — happens here, exactly once; NewSession is
// then cheap. Compile panics when Options.RulePacks do not merge; use
// CompileChecked for operator-supplied packs.
func Compile(opts Options) *Program {
	p, err := CompileChecked(opts)
	if err != nil {
		panic(err)
	}
	return p
}

// CompileChecked is Compile with pack-merge errors reported instead of
// panicking: a pack that passed LoadRulePack can still fail to merge
// (duplicate rule IDs across packs, registry conflicts).
func CompileChecked(opts Options) (*Program, error) {
	inner, err := anonymizer.CompileChecked(anonymizer.Options{
		Salt:         opts.Salt,
		Style:        opts.Style,
		KeepComments: opts.KeepComments,
		StatelessIP:  opts.StatelessIP,
		RulePacks:    opts.RulePacks,
		Tracer:       opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &Program{inner: inner, opts: opts}, nil
}

// Packs returns the identity of every rule pack compiled into the
// Program: the canonical built-in pack first, then Options.RulePacks in
// load order.
func (p *Program) Packs() []PackMeta { return p.inner.Packs() }

// NewSession derives a fresh Session from the Program: an Anonymizer with
// its own IP mapping, leak recorder, and statistics, sharing the compiled
// tables and rewrite cache with every other Session of the Program.
func (p *Program) NewSession() *Anonymizer {
	a := &Anonymizer{
		prog:   p,
		sess:   p.inner.NewSession(),
		strict: p.opts.Strict,
	}
	if p.opts.Metrics != nil {
		a.reg = p.opts.Metrics
		a.batch = newBatchMetrics(p.opts.Metrics)
		a.sess.SetMetrics(p.opts.Metrics)
	}
	return a
}

// Anonymizer is one anonymization Session: a handle on the mutable
// per-owner state (IP mapping, leak recorder, statistics) of a compiled
// Program. Safe for concurrent use — any number of goroutines may call
// its methods on the same Session, and the parallel batch APIs run worker
// pools over exactly this shared state.
type Anonymizer struct {
	prog   *Program
	sess   *anonymizer.Session
	strict bool
	reg    *MetricsRegistry
	batch  *batchMetrics
}

// New creates a single-session Anonymizer: the one-shot convenience form
// of Compile(opts).NewSession(). It remains the right call for the common
// one-owner, one-dataset case; callers anonymizing several datasets under
// the same salt should Compile once and derive a Session per dataset so
// the compiled tables and rewrite cache are shared.
func New(opts Options) *Anonymizer { return Compile(opts).NewSession() }

// Report builds a RunReport from the accumulated statistics (and the
// wired registry, if any). The batch APIs attach a richer report — with
// per-status file counts — to their CorpusResult; this accessor covers
// the single-file paths (File, Stream, Corpus).
func (a *Anonymizer) Report() *RunReport {
	rep := NewRunReport(a.Stats(), a.reg)
	rep.Packs = a.prog.Packs()
	return rep
}

// ParallelCorpus anonymizes a corpus across several workers sharing one
// Session. Under the default shaped-tree IP scheme the corpus is first
// censused in parallel, the census replayed into the shared tree in the
// deterministic serial order, and the files then rewritten in parallel —
// so the output is byte-identical to a sequential Corpus run at any
// worker count. Under Options.StatelessIP every mapping is a pure
// function of the salt (the parallelization the paper attributes to the
// Xu scheme: "very little state must be shared to consistently map
// addresses, making it amenable to parallelization") and the census is
// skipped. The per-worker statistics are merged in the returned Stats.
//
// ParallelCorpus is the convenience form of ParallelCorpusContext: a
// file whose processing fails (or, under Options.Strict, leaks) is
// silently absent from the returned map. Callers that must account for
// every input file — which fail-closed publication pipelines should —
// want ParallelCorpusContext and its CorpusResult.
func ParallelCorpus(opts Options, files map[string]string, workers int) (map[string]string, Stats) {
	res, _ := ParallelCorpusContext(context.Background(), opts, files, workers)
	return res.Outputs(), res.Stats
}

// File anonymizes a single configuration file.
func (a *Anonymizer) File(text string) string {
	w := a.sess.Acquire()
	defer a.sess.Release(w)
	return w.AnonymizeText(text)
}

// Stream anonymizes one configuration file from r to w. Under the
// StatelessIP scheme the engine rewrites each line as it is read —
// constant memory in the input size, byte-identical to File on the same
// text. Under the default shaped-tree scheme the subnet-shaping prescan
// must see the whole file before the first line can be rewritten, so the
// file (one file, never a corpus) is buffered internally.
func (a *Anonymizer) Stream(r io.Reader, w io.Writer) error {
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	return wk.StreamText(r, w)
}

// StreamCorpus anonymizes a sequence of files without ever holding the
// corpus in memory. next is called repeatedly and returns the name and
// content reader of each file in turn, or io.EOF when the corpus is
// exhausted; sink maps each file name to its output writer (closed by
// StreamCorpus after the file is written). Files are processed in
// arrival order with Stream's memory behavior per file.
//
// All files route through the Session, so cross-file consistency is
// exactly Corpus's: an address seen in two files maps identically, and a
// later Corpus or File call under the same Session stays consistent with
// the streamed output. The one remaining difference from Corpus is
// prescan scope: the subnet-shaping prescan sees each file individually,
// in arrival order, rather than the whole corpus up front — so which
// file first pins a shared subnet (and therefore the shape chosen for
// it) depends on the order next yields the files. Use Corpus when the
// mapping must be immune to file ordering.
func (a *Anonymizer) StreamCorpus(
	next func() (name string, r io.Reader, err error),
	sink func(name string) (io.WriteCloser, error),
) error {
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	for {
		name, r, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		w, err := sink(name)
		if err != nil {
			return err
		}
		serr := wk.StreamText(r, w)
		cerr := w.Close()
		if serr != nil {
			return serr
		}
		if cerr != nil {
			return cerr
		}
	}
}

// Corpus anonymizes a set of files as one network: every file is
// prescanned first so the subnet-address shaping of the IP mapping cannot
// be broken by file ordering, then each file is rewritten. Keys are
// preserved (file names are the caller's business; rename them if they
// leak identity).
func (a *Anonymizer) Corpus(files map[string]string) map[string]string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	for _, n := range names {
		wk.Prescan(files[n])
	}
	out := make(map[string]string, len(files))
	for _, n := range names {
		out[n] = wk.AnonymizeText(files[n])
	}
	return out
}

// Leaks scans anonymized files for sensitive values that survived,
// supporting the iterative leak-closure methodology: review the report,
// AddRule the dangerous tokens, re-anonymize, repeat until empty.
func (a *Anonymizer) Leaks(files map[string]string) []Leak {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	wk := a.sess.Acquire()
	defer a.sess.Release(wk)
	var out []Leak
	for _, n := range names {
		out = append(out, wk.LeakReport(files[n])...)
	}
	return out
}

// AddRule registers an operator-supplied sensitive token that must be
// anonymized wherever it appears. Workers pick the token up at their
// next file boundary.
func (a *Anonymizer) AddRule(token string) { a.sess.AddSensitiveToken(token) }

// Relation is one piece of well-known external knowledge: a public ASN
// and a prefix it is known to originate.
type Relation = anonymizer.Relation

// MappedRelation is the anonymized image of a declared Relation.
type MappedRelation = anonymizer.MappedRelation

// DeclareRelation registers external knowledge whose implicit
// relationship should be preserved (§5): the anonymized (ASN, prefix)
// pair is available from Relations for release alongside the configs.
func (a *Anonymizer) DeclareRelation(rel Relation) { a.sess.DeclareRelation(rel) }

// Relations returns the anonymized images of all declared relations.
func (a *Anonymizer) Relations() []MappedRelation { return a.sess.Relations() }

// RenameFile derives an anonymized output file name (file names are
// usually hostname-derived and leak identity).
func (a *Anonymizer) RenameFile(name string) string {
	w := a.sess.Acquire()
	defer a.sess.Release(w)
	return w.HashFileName(name)
}

// SaveMapping serializes the IP mapping so a later run with the same salt
// stays consistent with this one (new files from the same owner can be
// anonymized later without re-anonymizing the old ones).
func (a *Anonymizer) SaveMapping() []byte { return a.sess.SaveMapping() }

// LoadMapping restores a SaveMapping snapshot; call before anonymizing.
func (a *Anonymizer) LoadMapping(snapshot []byte) error { return a.sess.LoadMapping(snapshot) }

// Stats returns the Session's accumulated counters (all workers merged).
func (a *Anonymizer) Stats() Stats { return a.sess.Stats() }

// ValidationReport is the result of running both §5 suites over pre- and
// post-anonymization corpora.
type ValidationReport struct {
	// Suite1 lists independent characteristics that differ (empty = pass).
	Suite1 []string
	// Suite2 compares extracted routing designs.
	Suite2 validate.Suite2Result
}

// OK reports whether both suites pass.
func (r ValidationReport) OK() bool { return len(r.Suite1) == 0 && r.Suite2.OK() }

// Validate runs the two validation suites over pre/post corpora.
func Validate(pre, post map[string]string) ValidationReport {
	p := validate.ParseAll(pre)
	q := validate.ParseAll(post)
	return ValidationReport{
		Suite1: validate.Suite1(p, q),
		Suite2: validate.Suite2(p, q),
	}
}

// ParseConfig parses one configuration file into the typed model (exposed
// for analysis tooling built on anonymized data). The dialect — IOS or
// JunOS — is detected automatically.
func ParseConfig(text string) *config.Config { return validate.ParseAuto(text) }
