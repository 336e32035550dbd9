package anonymizer

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"confanon/internal/config"
	"confanon/internal/ipanon"
	"confanon/internal/metrics"
	"confanon/internal/store"
	"confanon/internal/trace"
)

// Session is the mutable per-owner half of the anonymizer: the IP
// mapping, the leak recorder, the operator-added sensitive tokens, the
// declared relations, and the merged statistics. One Session = one owner
// salt = one consistent mapping; a Session is safe for concurrent use by
// any number of workers (Acquire/Release), which is what the parallel
// corpus mode and the portal's concurrent uploads build on.
//
// Workers keep their hot-path state (statistics, recorder entries)
// private and reconcile it into the Session at file boundaries, so the
// per-token cost of sharing is zero; the shared IP mapper is internally
// concurrency-safe (lock-free on resolved addresses).
type Session struct {
	prog *Program

	// ipMu guards replacement of the mapper (LoadMapping); the mapper
	// itself is safe for concurrent use.
	ipMu sync.RWMutex
	ip   ipanon.Mapper

	// stats is the merged record of every completed file; workers apply
	// signed deltas with atomic adds, so reads must go through Stats().
	stats Stats

	// The leak recorder: every public ASN, hashed word, and mapped
	// original address any worker saw. Workers batch their entries and
	// publish them here at file boundaries under recMu.
	recMu     sync.RWMutex
	seenASNs  map[string]bool
	seenWords map[string]bool
	seenIPs   map[uint32]bool

	// sensTok is the operator-added sensitive-token set, copy-on-write so
	// workers read it without locking.
	sensTok atomic.Pointer[map[string]bool]

	relMu     sync.Mutex
	relations []Relation

	// ipOuts caches the mapping's output set for the leak report's
	// false-positive classification; ipOutsLen tracks staleness.
	outsMu    sync.Mutex
	ipOuts    map[uint32]bool
	ipOutsLen int

	// book is the wired registry's engine accumulator (SetMetrics; nil =
	// unwired). bookedIPs and bookedRemaps are the mapper totals this
	// Session has already added to it (bookMapper).
	book         *book
	bookedIPs    atomic.Int64
	bookedRemaps atomic.Int64

	// tracer is the span/ledger recorder every worker of this Session
	// writes into (copied from Options.Tracer at NewSession; nil =
	// untraced). Census sessions (NewCensus) always run untraced: their
	// files are throwaway rehearsals whose spans and decisions would
	// duplicate the real rewrite's.
	tracer *trace.Tracer

	// The durable mapping ledger (SetLedger). ledgerOn is the hot-path
	// gate (one atomic load per recorder flush when detached); ledMu
	// guards the sink, the pending record log, the persisted-pair
	// baseline, and the sticky first error. Commits happen at the same
	// clean-file-boundary points the provenance ledger publishes at
	// (fault.go), so a mid-file crash persists nothing partial.
	ledgerOn  atomic.Bool
	ledMu     sync.Mutex
	ledger    LedgerSink
	ledIPBase int
	recLog    []store.Record
	ledErr    error

	pool sync.Pool
}

// LedgerSink is the durable-store surface the Session commits into:
// Append buffers records, Commit makes everything appended since the
// last Commit durable atomically. *store.Ledger satisfies it.
type LedgerSink interface {
	Append(recs ...store.Record) error
	Commit() error
}

// NewSession creates a Session with a fresh IP mapping (shaped tree, or
// Crypto-PAn under StatelessIP).
func (p *Program) NewSession() *Session {
	var mapper ipanon.Mapper
	if p.opts.StatelessIP {
		mapper = ipanon.NewCryptoMapper(p.opts.Salt)
	} else {
		mapper = ipanon.NewTree(ipanon.DefaultOptions(p.opts.Salt))
	}
	return p.newSession(mapper)
}

func (p *Program) newSession(mapper ipanon.Mapper) *Session {
	s := &Session{
		prog:      p,
		ip:        mapper,
		seenASNs:  make(map[string]bool),
		seenWords: make(map[string]bool),
		seenIPs:   make(map[uint32]bool),
	}
	empty := make(map[string]bool)
	s.sensTok.Store(&empty)
	s.tracer = p.opts.Tracer
	return s
}

// Program returns the compiled half this Session runs.
func (s *Session) Program() *Program { return s.prog }

// mapper returns the current IP mapper.
func (s *Session) mapper() ipanon.Mapper {
	s.ipMu.RLock()
	defer s.ipMu.RUnlock()
	return s.ip
}

// Acquire returns a worker bound to this Session, creating one if the
// pool is empty. Workers are single-goroutine engines; acquire one per
// goroutine and Release it when done so its final partial state flushes.
func (s *Session) Acquire() *Anonymizer {
	a, _ := s.pool.Get().(*Anonymizer)
	if a == nil {
		a = s.newWorker()
	}
	// Refresh the shared-state snapshots: the mapper (LoadMapping may
	// have replaced it) and the sensitive-token set.
	a.ip = s.mapper()
	a.sensitiveTokens = *s.sensTok.Load()
	return a
}

// Release flushes the worker's unreconciled state into the Session and
// returns it to the pool.
func (s *Session) Release(a *Anonymizer) {
	a.flush()
	s.pool.Put(a)
}

// Bind returns a dedicated worker that is never pooled: the single-
// goroutine convenience handle New() exposes. Its state still reconciles
// into the Session at every file boundary.
func (s *Session) Bind() *Anonymizer { return s.Acquire() }

func (s *Session) newWorker() *Anonymizer {
	return &Anonymizer{
		prog:            s.prog,
		sess:            s,
		opts:            s.prog.opts,
		pass:            s.prog.pass,
		perms:           s.prog.perms,
		rules:           s.prog.rules,
		ip:              s.mapper(),
		stats:           newStats(),
		seenASNs:        make(map[string]bool),
		seenWords:       make(map[string]bool),
		seenIPs:         make(map[uint32]bool),
		sensitiveTokens: *s.sensTok.Load(),
		tracer:          s.tracer,
	}
}

// Stats returns a consistent snapshot of the merged statistics.
func (s *Session) Stats() Stats { return s.stats.snapshotAtomic() }

// SetMetrics wires the Session to a shared registry: from now on every
// worker flush also adds its Stats delta to the registry's book, which
// the registry samples when it is scraped (metrics.go). The registry
// keeps no reference to the Session. A nil registry unwires.
func (s *Session) SetMetrics(reg *metrics.Registry) {
	var b *book
	if reg != nil {
		b = bookFor(reg)
		b.wire(s.prog)
	}
	if b != s.book {
		// A different book has booked none of this Session's mapper.
		s.bookedIPs.Store(0)
		s.bookedRemaps.Store(0)
	}
	s.book = b
}

// MapperCounts reports the Session's IP mapping size (distinct addresses
// resolved) and its collision-chase remap count.
func (s *Session) MapperCounts() (entries, remaps int64) {
	ip := s.mapper()
	return int64(ip.Len()), ip.Remaps()
}

// bookMapper advances the book by the mapper's growth since this Session
// last booked it. The booked marks only move forward, so workers of one
// Session flushing concurrently book each entry exactly once.
func (s *Session) bookMapper(b *book) {
	entries, remaps := s.MapperCounts()
	b.ipEntries.Add(advance(&s.bookedIPs, entries))
	b.ipRemaps.Add(advance(&s.bookedRemaps, remaps))
}

// advance raises mark to n and returns by how much (0 when mark is
// already at or past n).
func advance(mark *atomic.Int64, n int64) int64 {
	for {
		old := mark.Load()
		if n <= old {
			return 0
		}
		if mark.CompareAndSwap(old, n) {
			return n - old
		}
	}
}

// AddSensitiveToken registers an operator-supplied rule for every worker
// of this Session (copy-on-write: in-flight workers pick it up on their
// next Acquire). A genuinely new token is also appended to the attached
// mapping ledger (committed at the next clean file boundary).
func (s *Session) AddSensitiveToken(tok string) {
	for {
		old := s.sensTok.Load()
		if (*old)[tok] {
			return
		}
		next := make(map[string]bool, len(*old)+1)
		for k := range *old {
			next[k] = true
		}
		next[tok] = true
		if s.sensTok.CompareAndSwap(old, &next) {
			s.appendLedgerRecords([]store.Record{{T: store.TSensitive, V: tok}})
			return
		}
	}
}

// SensitiveTokens returns the operator-added sensitive tokens, sorted
// (the incremental cache fingerprints them: a token added between runs
// changes what every file's output would be, so cached lines from before
// the addition must not be reused).
func (s *Session) SensitiveTokens() []string {
	m := *s.sensTok.Load()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeclareRelation registers well-known external knowledge (§5) and pins
// the prefix into the shared mapping immediately, so shaping is
// independent of where it later appears in the files.
func (s *Session) DeclareRelation(rel Relation) {
	s.relMu.Lock()
	s.relations = append(s.relations, rel)
	s.relMu.Unlock()
	s.appendLedgerRecords([]store.Record{{T: store.TRelation, ASN: rel.ASN, Prefix: rel.Prefix, Len: rel.Len}})
	s.mapper().MapPrefix(rel.Prefix&config.LenToMask(rel.Len), rel.Len)
}

// Relations returns the anonymized images of every declared relation.
func (s *Session) Relations() []MappedRelation {
	s.relMu.Lock()
	rels := append([]Relation(nil), s.relations...)
	s.relMu.Unlock()
	ip := s.mapper()
	out := make([]MappedRelation, 0, len(rels))
	for _, rel := range rels {
		out = append(out, MappedRelation{
			ASN:    s.prog.perms.ASN.Map(rel.ASN),
			Prefix: ip.MapPrefix(rel.Prefix&config.LenToMask(rel.Len), rel.Len),
			Len:    rel.Len,
		})
	}
	return out
}

// saltFP returns the owner fingerprint every persistence artifact of
// this Session is keyed by.
func (s *Session) saltFP() string { return store.SaltFingerprint(s.prog.opts.Salt) }

// CaptureState snapshots every piece of mutable Session state the
// durable store persists: the IP mapping in insertion order, the leak
// recorder (sorted, for deterministic snapshots), the operator-added
// sensitive tokens, and the declared relations.
func (s *Session) CaptureState() store.State {
	var st store.State
	for _, p := range s.mapper().Since(0) {
		st.IPs = append(st.IPs, store.Pair{In: p.In, Out: p.Out})
	}
	s.recMu.RLock()
	for k := range s.seenASNs {
		st.ASNs = append(st.ASNs, k)
	}
	for k := range s.seenWords {
		st.Words = append(st.Words, k)
	}
	for k := range s.seenIPs {
		st.OrigIPs = append(st.OrigIPs, k)
	}
	s.recMu.RUnlock()
	sort.Strings(st.ASNs)
	sort.Strings(st.Words)
	sort.Slice(st.OrigIPs, func(i, j int) bool { return st.OrigIPs[i] < st.OrigIPs[j] })
	for k := range *s.sensTok.Load() {
		st.Sensitive = append(st.Sensitive, k)
	}
	sort.Strings(st.Sensitive)
	s.relMu.Lock()
	for _, rel := range s.relations {
		st.Relations = append(st.Relations, store.Relation{ASN: rel.ASN, Prefix: rel.Prefix, Len: rel.Len})
	}
	s.relMu.Unlock()
	return st
}

// RestoreState reinstates a captured state: the IP pairs replay through
// a fresh mapper in insertion order, verified pair by pair against this
// Session's salt (a snapshot taken under a different salt fails, never
// silently diverges); recorder entries, sensitive tokens, and relations
// merge in. Call before any anonymization.
func (s *Session) RestoreState(st store.State) error {
	var mapper ipanon.Mapper
	if s.prog.opts.StatelessIP {
		mapper = ipanon.NewCryptoMapper(s.prog.opts.Salt)
	} else {
		mapper = ipanon.NewTree(ipanon.DefaultOptions(s.prog.opts.Salt))
	}
	for _, p := range st.IPs {
		if got := mapper.MapV4(p.In); got != p.Out {
			return fmt.Errorf("anonymizer: state replay mismatch for %08x: got %08x want %08x (wrong salt?)",
				p.In, got, p.Out)
		}
	}
	s.ipMu.Lock()
	s.ip = mapper
	s.ipMu.Unlock()
	s.recMu.Lock()
	for _, k := range st.ASNs {
		s.seenASNs[k] = true
	}
	for _, k := range st.Words {
		s.seenWords[k] = true
	}
	for _, k := range st.OrigIPs {
		s.seenIPs[k] = true
	}
	s.recMu.Unlock()
	if len(st.Sensitive) > 0 {
		old := s.sensTok.Load()
		next := make(map[string]bool, len(*old)+len(st.Sensitive))
		for k := range *old {
			next[k] = true
		}
		for _, k := range st.Sensitive {
			next[k] = true
		}
		s.sensTok.Store(&next)
	}
	if len(st.Relations) > 0 {
		s.relMu.Lock()
		for _, r := range st.Relations {
			s.relations = append(s.relations, Relation{ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
		}
		s.relMu.Unlock()
	}
	return nil
}

// SaveMapping serializes the complete mutable Session state — the IP
// mapping in insertion order, the leak-recorder maps, the sensitive
// tokens, the declared relations — as a versioned confanon.mapping/v1
// blob. An empty session snapshots nil.
func (s *Session) SaveMapping() []byte {
	st := s.CaptureState()
	if st.Empty() {
		return nil
	}
	blob, err := store.EncodeState(&st, s.saltFP())
	if err != nil {
		// Marshal of plain structs cannot fail; keep the historical
		// no-error signature.
		return nil
	}
	return blob
}

// LoadMapping restores a SaveMapping snapshot. Call before any
// anonymization, with the same salt: the blob's salt fingerprint and
// every replayed pair are checked against this Session, so a wrong-salt
// snapshot is rejected, not silently diverged from. Anything that is not
// a confanon.mapping/v1 blob — including the tree-only format of earlier
// releases — fails with an error wrapping store.ErrSchema.
func (s *Session) LoadMapping(snapshot []byte) error {
	if len(snapshot) == 0 {
		return nil
	}
	st, fp, err := store.DecodeState(snapshot)
	if err != nil {
		return err
	}
	if fp != "" && fp != s.saltFP() {
		return fmt.Errorf("anonymizer: %w", store.ErrSaltMismatch)
	}
	return s.RestoreState(st)
}

// SetLedger attaches a durable mapping ledger: from now on every clean
// file boundary commits the state delta since the last commit — newly
// resolved IP pairs, new leak-recorder entries, new sensitive tokens and
// relations. State the mapper resolved before attachment is assumed
// already persisted (the usual flow restores the ledger's replayed state
// first, then attaches). nil detaches.
func (s *Session) SetLedger(l LedgerSink) {
	s.ledMu.Lock()
	s.ledger = l
	s.ledIPBase = s.mapper().Len()
	s.recLog = nil
	s.ledErr = nil
	s.ledMu.Unlock()
	s.ledgerOn.Store(l != nil)
}

// LedgerErr reports the first error the attached ledger returned (nil
// when healthy). Ledger errors are sticky and stop further commits: the
// run's output is still correct, but its mappings are no longer durable,
// so batch callers surface this as a run-level failure.
func (s *Session) LedgerErr() error {
	s.ledMu.Lock()
	defer s.ledMu.Unlock()
	return s.ledErr
}

// appendLedgerRecords queues records for the next commit; a no-op when
// no ledger is attached.
func (s *Session) appendLedgerRecords(recs []store.Record) {
	if !s.ledgerOn.Load() || len(recs) == 0 {
		return
	}
	s.ledMu.Lock()
	if s.ledger != nil && s.ledErr == nil {
		s.recLog = append(s.recLog, recs...)
	}
	s.ledMu.Unlock()
}

// commitLedger persists the state delta since the last commit: the IP
// pairs the shared mapper resolved past the persisted baseline, plus the
// queued recorder/token/relation records. Called from the Safe* methods
// at clean file boundaries — the same points the provenance ledger
// publishes at — and never from a rollback path, so a mid-file failure
// persists nothing. Note the delta is session-wide, not per-file: pairs
// resolved by a file that later aborts are live shared state (subsequent
// mappings depend on them), so they are swept into the next clean
// commit, which is exactly what replica consistency requires.
func (s *Session) commitLedger() {
	if !s.ledgerOn.Load() {
		return
	}
	s.ledMu.Lock()
	defer s.ledMu.Unlock()
	if s.ledger == nil || s.ledErr != nil {
		return
	}
	pairs := s.mapper().Since(s.ledIPBase)
	if len(pairs) == 0 && len(s.recLog) == 0 {
		return
	}
	recs := make([]store.Record, 0, len(pairs)+len(s.recLog))
	for _, p := range pairs {
		recs = append(recs, store.Record{T: store.TIP, In: p.In, Out: p.Out})
	}
	recs = append(recs, s.recLog...)
	if err := s.ledger.Append(recs...); err != nil {
		s.ledErr = err
		return
	}
	if err := s.ledger.Commit(); err != nil {
		s.ledErr = err
		return
	}
	s.ledIPBase += len(pairs)
	s.recLog = s.recLog[:0]
}

// SyncLedger commits any state delta not yet persisted (end-of-run
// flush; also the point batch callers check ledger health).
func (s *Session) SyncLedger() error {
	s.commitLedger()
	return s.LedgerErr()
}

// IPMapping exposes the resolved IP pairs (for validation tooling).
func (s *Session) IPMapping() []ipanon.Pair { return s.mapper().Mapping() }

// NewCensus returns a recording worker for the deterministic parallel
// corpus mode, plus the trace it records into. The worker shares this
// Session's Program and sensitive tokens but maps addresses through an
// identity Trace and discards its statistics and recorder entries into a
// throwaway session — running a file through it produces no output
// anyone keeps, only the ordered log of mapper calls the file would
// perform. Replaying those logs serially (Replay) reproduces the serial
// run's insertion order exactly.
func (s *Session) NewCensus() (*Anonymizer, *ipanon.Trace) {
	tr := &ipanon.Trace{}
	mute := s.prog.newSession(tr)
	mute.sensTok.Store(s.sensTok.Load())
	mute.tracer = nil // census rehearsals must not emit spans or ledger entries
	return mute.Acquire(), tr
}

// Replay feeds a census trace into the Session's shared mapper.
func (s *Session) Replay(tr *ipanon.Trace) { tr.Replay(s.mapper()) }

// CensusFile records one file's mapper-call traces: pins is the prescan's
// MapPrefix sequence, full the complete rewrite's sequence (prescan
// included, as AnonymizeText re-runs it). When the prescan panics, pinErr
// carries the failure and pins holds the partial sequence up to the
// abort — which is exactly what a serial run would have inserted; full is
// nil. A full-pass panic likewise truncates full at the abort point. The
// traces touch only throwaway state, so any number of CensusFile calls
// may run concurrently.
func (s *Session) CensusFile(name, text string) (pins, full *ipanon.Trace, pinErr *FileError) {
	pw, pt := s.NewCensus()
	if pinErr = pw.SafePrescan(name, text); pinErr != nil {
		return pt, nil, pinErr
	}
	fw, ft := s.NewCensus()
	fw.SafeAnonymizeText(name, text)
	return pt, ft, nil
}

// ipOutputs returns (cached) the set of addresses the shared mapping has
// produced so far, refreshed when the recorder has grown. seenLen is the
// caller's view of len(seenIPs) (callers hold recMu).
func (s *Session) ipOutputs(seenLen int) map[uint32]bool {
	s.outsMu.Lock()
	defer s.outsMu.Unlock()
	if s.ipOuts != nil && s.ipOutsLen == seenLen {
		return s.ipOuts
	}
	outs := make(map[uint32]bool)
	for _, p := range s.mapper().Mapping() {
		outs[p.Out] = true
	}
	s.ipOuts = outs
	s.ipOutsLen = seenLen
	return outs
}
