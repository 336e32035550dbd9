// Package store implements the durable per-owner mapping ledger: a
// crash-safe, append-only record of everything a confanon Session has
// resolved — IP mapping pairs in tree-insertion order, leak-recorder
// entries, operator-added sensitive tokens, declared relations — so that
// the mapping survives restarts and any replica holding the ledger can
// serve any owner consistently (the clearinghouse model of the paper's
// §7, where the same network's configs arrive repeatedly).
//
// # On-disk layout
//
// A ledger is a directory of JSONL segment files, seg-000001.jsonl,
// seg-000002.jsonl, ..., replayed in order. Every line is a CRC-framed
// envelope:
//
//	{"c":<crc32>,"r":{"t":"ip","in":201392643,"out":3146518787}}
//
// where c is the IEEE CRC-32 of the exact bytes of r. The first record
// of each segment is an "open" header carrying the schema
// (confanon.mapping/v1) and the owner's salt fingerprint; "commit"
// records mark durability points. Appends buffer in memory and reach the
// OS only at Commit, which writes a commit record and fsyncs — so the
// commit protocol gives exactly the batch layer's clean-file-boundary
// semantics: a crash mid-file (between appends, or between an append and
// its commit) loses nothing but the uncommitted suffix, which replay
// discards.
//
// # Recovery
//
// Open replays every segment. Records after the last valid commit —
// including a torn final line from a crash mid-write — are discarded
// silently (that is the designed crash window). A record that fails its
// CRC or does not parse *before* a later valid commit is corruption of
// durable data and fails Open with ErrCorrupt: the ledger never guesses
// at committed state.
//
// # Compaction
//
// Replay cost grows with dead weight (a segment per process restart,
// re-resolved pairs). Compact writes the entire live state as one fresh
// committed segment, fsyncs it, and deletes the older segments; a crash
// between those two steps leaves both, which is safe because replaying
// the old segments before the snapshot reproduces the identical state
// (every record type is idempotent under re-application). Commit
// triggers compaction automatically when the dead-weight ratio passes a
// threshold; long-running services can also run MaybeCompact from a
// background housekeeping loop.
//
// # Sensitivity
//
// A ledger holds the owner's raw mapping — original addresses, the
// leak recorder's cleartext tokens — and is exactly as sensitive as the
// salt itself. Directories are created 0700 and segments 0600; treat the
// state directory like a key store, never like output.
package store

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"confanon/internal/retry"
)

// ioRetry shields the ledger's durability syscalls — the flush/fsync
// pair in Commit and compaction's segment removals — from transient
// failures (EINTR, EAGAIN, exhausted descriptors) under the shared
// backoff policy. No jitter: these retries run with the ledger lock
// held, and random extra sleep there serves nobody.
var ioRetry = retry.Default.NoJitter()

// SaltFingerprint derives the opaque owner identifier ledgers are keyed
// by: a domain-separated SHA-256 of the salt, hex-encoded. It names the
// owner without revealing the salt, so it is safe in file headers, paths,
// and logs.
func SaltFingerprint(salt []byte) string {
	h := sha256.Sum256(append([]byte("confanon.saltfp/"), salt...))
	return hex.EncodeToString(h[:])
}

// Schema identifies the segment layout; the "open" header of every
// segment carries it.
const Schema = "confanon.mapping/v1"

// Record types (the "t" field of a ledger record).
const (
	// TOpen is the segment header: schema, salt fingerprint, segment
	// index.
	TOpen = "open"
	// TCommit marks a durability point: replay applies records only up
	// to the last valid commit.
	TCommit = "commit"
	// TIP is one resolved IP mapping pair, in tree-insertion order
	// (replay order is the mapping: the shaped tree is order-dependent).
	TIP = "ip"
	// TASN is one leak-recorder entry: a public ASN the session mapped.
	TASN = "asn"
	// TWord is one leak-recorder entry: a word the session hashed.
	TWord = "word"
	// TOrigIP is one leak-recorder entry: an original address the
	// session mapped (recorded for the leak report's survival scan).
	TOrigIP = "oip"
	// TSensitive is one operator-added sensitive token.
	TSensitive = "sens"
	// TRelation is one declared (ASN, prefix) external relation.
	TRelation = "rel"
)

// Record is one ledger entry. The fields used depend on T: ip pairs use
// In/Out, string-valued entries (asn, word, sens) use V, original IPs
// use In, relations use ASN/Prefix/Len, the open header uses
// Schema/SaltFP/Seg, and commits use N (the cumulative record count the
// commit covers, a cheap consistency check on replay).
type Record struct {
	T string `json:"t"`

	In  uint32 `json:"in,omitempty"`
	Out uint32 `json:"out,omitempty"`
	V   string `json:"v,omitempty"`

	ASN    uint32 `json:"asn,omitempty"`
	Prefix uint32 `json:"prefix,omitempty"`
	Len    int    `json:"len,omitempty"`

	Schema string `json:"schema,omitempty"`
	SaltFP string `json:"salt_fp,omitempty"`
	Seg    int    `json:"seg,omitempty"`
	N      int    `json:"n,omitempty"`
}

// Pair is one resolved IP mapping pair (mirrors ipanon.Pair without the
// dependency; store stays stdlib-only).
type Pair struct{ In, Out uint32 }

// Relation is one declared (ASN, prefix, len) external relation.
type Relation struct {
	ASN    uint32
	Prefix uint32
	Len    int
}

// State is the replayed, committed content of a ledger: everything a
// Session needs to continue (or a replica to reproduce) an owner's
// mapping. IPs preserve insertion order — the shaped tree depends on it.
type State struct {
	IPs       []Pair
	ASNs      []string
	Words     []string
	OrigIPs   []uint32
	Sensitive []string
	Relations []Relation
}

// Empty reports whether the state carries nothing.
func (s *State) Empty() bool {
	return len(s.IPs) == 0 && len(s.ASNs) == 0 && len(s.Words) == 0 &&
		len(s.OrigIPs) == 0 && len(s.Sensitive) == 0 && len(s.Relations) == 0
}

// records flattens the state into replayable ledger records (IP pairs
// first, preserving insertion order).
func (s *State) records() []Record {
	recs := make([]Record, 0, len(s.IPs)+len(s.ASNs)+len(s.Words)+
		len(s.OrigIPs)+len(s.Sensitive)+len(s.Relations))
	for _, p := range s.IPs {
		recs = append(recs, Record{T: TIP, In: p.In, Out: p.Out})
	}
	for _, v := range s.ASNs {
		recs = append(recs, Record{T: TASN, V: v})
	}
	for _, v := range s.Words {
		recs = append(recs, Record{T: TWord, V: v})
	}
	for _, ip := range s.OrigIPs {
		recs = append(recs, Record{T: TOrigIP, In: ip})
	}
	for _, v := range s.Sensitive {
		recs = append(recs, Record{T: TSensitive, V: v})
	}
	for _, r := range s.Relations {
		recs = append(recs, Record{T: TRelation, ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
	}
	return recs
}

// apply folds one data record into the state. Re-application is
// idempotent for every type except IP insertion order, which replay
// keeps stable by construction (a pair already present is skipped, so a
// compacted snapshot replayed after the segments it summarizes changes
// nothing).
func (s *State) apply(r Record, seenIP map[uint32]bool, seenStr map[string]bool) {
	switch r.T {
	case TIP:
		if !seenIP[r.In] {
			seenIP[r.In] = true
			s.IPs = append(s.IPs, Pair{In: r.In, Out: r.Out})
		}
	case TASN:
		if k := "a\x00" + r.V; !seenStr[k] {
			seenStr[k] = true
			s.ASNs = append(s.ASNs, r.V)
		}
	case TWord:
		if k := "w\x00" + r.V; !seenStr[k] {
			seenStr[k] = true
			s.Words = append(s.Words, r.V)
		}
	case TOrigIP:
		if k := fmt.Sprintf("o\x00%d", r.In); !seenStr[k] {
			seenStr[k] = true
			s.OrigIPs = append(s.OrigIPs, r.In)
		}
	case TSensitive:
		if k := "s\x00" + r.V; !seenStr[k] {
			seenStr[k] = true
			s.Sensitive = append(s.Sensitive, r.V)
		}
	case TRelation:
		if k := fmt.Sprintf("r\x00%d/%d/%d", r.ASN, r.Prefix, r.Len); !seenStr[k] {
			seenStr[k] = true
			s.Relations = append(s.Relations, Relation{ASN: r.ASN, Prefix: r.Prefix, Len: r.Len})
		}
	}
}

// Errors.
var (
	// ErrCorrupt reports a record inside the committed region that fails
	// its CRC or does not parse — durable data the ledger cannot trust.
	ErrCorrupt = errors.New("store: ledger corrupt inside committed region")
	// ErrSchema reports a segment whose open header carries a foreign
	// schema.
	ErrSchema = errors.New("store: not a " + Schema + " ledger")
	// ErrSaltMismatch reports a ledger written under a different owner
	// salt than the one opening it — replaying it would silently produce
	// an inconsistent mapping, so Open refuses.
	ErrSaltMismatch = errors.New("store: ledger salt fingerprint mismatch")
)

// envelope is the CRC frame around every line: C is the IEEE CRC-32 of
// the exact bytes of R as written (json.RawMessage round-trips them
// verbatim).
type envelope struct {
	C uint32          `json:"c"`
	R json.RawMessage `json:"r"`
}

// encodeLine frames one record.
func encodeLine(r Record) ([]byte, error) {
	inner, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{C: crc32.ChecksumIEEE(inner), R: inner})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// decodeLine unframes one line, verifying the CRC.
func decodeLine(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, fmt.Errorf("bad envelope: %w", err)
	}
	if crc32.ChecksumIEEE(env.R) != env.C {
		return Record{}, errors.New("crc mismatch")
	}
	var rec Record
	if err := json.Unmarshal(env.R, &rec); err != nil {
		return Record{}, fmt.Errorf("bad record: %w", err)
	}
	return rec, nil
}

// crashHook, when set, is invoked at the named points of the commit
// protocol ("append" after records reach the segment buffer, "commit"
// just before the commit record is written, "committed" after the
// fsync). Chaos tests inject panics here to simulate a crash between
// append and commit; production code never sets it.
var crashHook func(event string)

// SetCrashHook installs (or, with nil, removes) the chaos-testing hook.
func SetCrashHook(h func(event string)) { crashHook = h }

func fireCrashHook(event string) {
	if crashHook != nil {
		crashHook(event)
	}
}

// Ledger is one owner's open mapping ledger: the replayed committed
// state plus an active segment receiving appends. Safe for concurrent
// use; Append and Commit serialize internally (callers batch appends at
// clean file boundaries, so the lock is never on a per-token path).
type Ledger struct {
	mu sync.Mutex

	dir    string
	saltFP string

	f        *os.File
	w        *bufio.Writer
	seg      int
	segRecs  int // records written to the active segment (committed + pending)
	pending  []Record
	state    State
	seenIP   map[uint32]bool
	seenStr  map[string]bool
	closed   bool
	diskRecs int // data records replayed from older segments (incl. duplicates)

	// CompactThreshold is the dead-weight ratio (total replayed records
	// across segments vs live state records) beyond which Commit
	// compacts; <=1 disables automatic compaction. Set before first
	// Commit.
	CompactThreshold float64
	// compactFloor avoids churning tiny ledgers: no automatic compaction
	// below this many total records.
	compactFloor int
}

// Open replays the ledger directory (creating it if absent), verifies
// the salt fingerprint, and starts a fresh active segment. saltFP is an
// opaque owner identifier — callers derive it from the salt (never the
// salt itself); an existing ledger written under a different fingerprint
// fails with ErrSaltMismatch.
func Open(dir, saltFP string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	l := &Ledger{
		dir:              dir,
		saltFP:           saltFP,
		seenIP:           make(map[uint32]bool),
		seenStr:          make(map[string]bool),
		CompactThreshold: 3,
		compactFloor:     1024,
	}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		n, err := l.replaySegment(seg)
		if err != nil {
			return nil, err
		}
		l.diskRecs += n
	}
	l.seg = 1
	if n := len(segs); n > 0 {
		last, perr := segIndex(segs[n-1])
		if perr != nil {
			return nil, perr
		}
		l.seg = last + 1
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// segments lists the ledger's segment files in replay order.
func (l *Ledger) segments() ([]string, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, err := segIndex(e.Name()); err == nil {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// segIndex parses a segment file name ("seg-000042.jsonl" → 42).
func segIndex(name string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(name, "seg-%06d.jsonl", &n); err != nil {
		return 0, err
	}
	if fmt.Sprintf("seg-%06d.jsonl", n) != name {
		return 0, fmt.Errorf("store: not a segment name: %q", name)
	}
	return n, nil
}

func (l *Ledger) segPath(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%06d.jsonl", n))
}

// replaySegment folds one segment's committed records into the state.
// Returns the number of committed data records applied.
func (l *Ledger) replaySegment(name string) (int, error) {
	f, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	// Two-phase replay: scan every line first so corruption can be
	// classified (before vs after the last commit), then apply the
	// committed prefix.
	type scanned struct {
		rec Record
		err error
	}
	var lines []scanned
	lastCommit := -1
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec, derr := decodeLine(raw)
		lines = append(lines, scanned{rec: rec, err: derr})
		if derr == nil && rec.T == TCommit {
			lastCommit = len(lines) - 1
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("store: reading %s: %w", name, err)
	}
	applied := 0
	for i, ln := range lines {
		if i > lastCommit {
			break // uncommitted suffix (incl. a torn tail): discarded
		}
		if ln.err != nil {
			return 0, fmt.Errorf("%w (%s line %d: %v)", ErrCorrupt, name, i+1, ln.err)
		}
		switch ln.rec.T {
		case TOpen:
			if ln.rec.Schema != Schema {
				return 0, fmt.Errorf("%w (%s carries %q)", ErrSchema, name, ln.rec.Schema)
			}
			if ln.rec.SaltFP != l.saltFP {
				return 0, fmt.Errorf("%w (%s)", ErrSaltMismatch, name)
			}
		case TCommit:
			// Durability marker; nothing to apply.
		default:
			l.state.apply(ln.rec, l.seenIP, l.seenStr)
			applied++
		}
	}
	// A segment with no commit contributes nothing — but its header, if
	// readable, must still agree on schema and salt.
	if lastCommit < 0 {
		for _, ln := range lines {
			if ln.err == nil && ln.rec.T == TOpen {
				if ln.rec.Schema != Schema {
					return 0, fmt.Errorf("%w (%s carries %q)", ErrSchema, name, ln.rec.Schema)
				}
				if ln.rec.SaltFP != l.saltFP {
					return 0, fmt.Errorf("%w (%s)", ErrSaltMismatch, name)
				}
			}
			break // only the first line can be the header
		}
	}
	return applied, nil
}

// openSegment starts the active segment with its open header (buffered;
// the header becomes durable with the first commit).
func (l *Ledger) openSegment() error {
	f, err := os.OpenFile(l.segPath(l.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segRecs = 0
	line, err := encodeLine(Record{T: TOpen, Schema: Schema, SaltFP: l.saltFP, Seg: l.seg})
	if err != nil {
		return err
	}
	_, err = l.w.Write(line)
	return err
}

// stateLen counts the live state's data records.
func (l *Ledger) stateLen() int {
	s := &l.state
	return len(s.IPs) + len(s.ASNs) + len(s.Words) + len(s.OrigIPs) +
		len(s.Sensitive) + len(s.Relations)
}

// State returns a copy of the committed state (replayed at Open plus
// every Commit since).
func (l *Ledger) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return State{
		IPs:       append([]Pair(nil), l.state.IPs...),
		ASNs:      append([]string(nil), l.state.ASNs...),
		Words:     append([]string(nil), l.state.Words...),
		OrigIPs:   append([]uint32(nil), l.state.OrigIPs...),
		Sensitive: append([]string(nil), l.state.Sensitive...),
		Relations: append([]Relation(nil), l.state.Relations...),
	}
}

// SaltFP returns the owner fingerprint the ledger was opened with.
func (l *Ledger) SaltFP() string { return l.saltFP }

// Dir returns the ledger directory.
func (l *Ledger) Dir() string { return l.dir }

// Append buffers records onto the active segment. Nothing is durable —
// or visible to State — until Commit.
func (l *Ledger) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: ledger closed")
	}
	for _, r := range recs {
		line, err := encodeLine(r)
		if err != nil {
			return err
		}
		if _, err := l.w.Write(line); err != nil {
			return err
		}
		l.segRecs++
	}
	l.pending = append(l.pending, recs...)
	fireCrashHook("append")
	return nil
}

// Commit makes every buffered record durable: it writes a commit
// record, flushes, and fsyncs the segment. On success the records are
// folded into State. Commit with nothing pending is a no-op (no fsync).
func (l *Ledger) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: ledger closed")
	}
	if len(l.pending) == 0 {
		return nil
	}
	fireCrashHook("commit")
	line, err := encodeLine(Record{T: TCommit, N: l.segRecs})
	if err != nil {
		return err
	}
	if _, err := l.w.Write(line); err != nil {
		return err
	}
	// Flush and fsync are retried as one unit: a re-run flush after a
	// partial failure is a cheap no-op, and the pair succeeding is what
	// "committed" means.
	if err := ioRetry.Do(context.Background(), func() error {
		if err := l.w.Flush(); err != nil {
			return err
		}
		return l.f.Sync()
	}); err != nil {
		return err
	}
	fireCrashHook("committed")
	for _, r := range l.pending {
		l.state.apply(r, l.seenIP, l.seenStr)
	}
	l.pending = l.pending[:0]
	if l.shouldCompact() {
		return l.compactLocked()
	}
	return nil
}

// shouldCompact reports whether replay dead weight warrants compaction:
// the on-disk data record count (replayed total plus the active
// segment's counter) exceeds CompactThreshold times the live state,
// above the churn floor. Called with mu held.
func (l *Ledger) shouldCompact() bool {
	if l.CompactThreshold <= 1 {
		return false
	}
	live := l.stateLen()
	onDisk := l.diskRecs + l.segRecs
	return onDisk >= l.compactFloor && float64(onDisk) > l.CompactThreshold*float64(live)
}

// MaybeCompact compacts when the dead-weight heuristic says so; the
// no-op path is cheap, so background housekeeping loops can call it on
// a timer.
func (l *Ledger) MaybeCompact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.shouldCompact() {
		return nil
	}
	return l.compactLocked()
}

// Compact rewrites the ledger as one fresh committed snapshot segment
// and removes the older segments. Uncommitted appends survive: they are
// re-buffered onto the new active segment (still uncommitted).
func (l *Ledger) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("store: ledger closed")
	}
	return l.compactLocked()
}

// compactLocked does the work of Compact with mu held.
func (l *Ledger) compactLocked() error {
	pending := append([]Record(nil), l.pending...)
	// Close the current active segment; its committed content is about
	// to be superseded, and its uncommitted tail is re-buffered below.
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	old, err := l.segments()
	if err != nil {
		return err
	}
	// Write the snapshot as the next segment and make it durable before
	// any old segment is touched. A crash before the removals leaves old
	// + snapshot, which replays to the identical state (idempotent
	// records); a crash before the snapshot's commit record leaves the
	// snapshot uncommitted and therefore ignored.
	l.seg++
	if err := l.openSegment(); err != nil {
		return err
	}
	snap := l.state.records()
	for _, r := range snap {
		line, lerr := encodeLine(r)
		if lerr != nil {
			return lerr
		}
		if _, werr := l.w.Write(line); werr != nil {
			return werr
		}
		l.segRecs++
	}
	line, err := encodeLine(Record{T: TCommit, N: l.segRecs})
	if err != nil {
		return err
	}
	if _, err := l.w.Write(line); err != nil {
		return err
	}
	if err := ioRetry.Do(context.Background(), func() error {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		return syncDir(l.dir)
	}); err != nil {
		return err
	}
	for _, name := range old {
		path := filepath.Join(l.dir, name)
		if err := ioRetry.Do(context.Background(), func() error { return os.Remove(path) }); err != nil {
			return err
		}
	}
	l.diskRecs = l.segRecs
	l.segRecs = 0
	// Re-buffer the uncommitted tail onto the snapshot segment.
	l.pending = l.pending[:0]
	for _, r := range pending {
		eline, lerr := encodeLine(r)
		if lerr != nil {
			return lerr
		}
		if _, werr := l.w.Write(eline); werr != nil {
			return werr
		}
		l.segRecs++
	}
	l.pending = append(l.pending, pending...)
	return nil
}

// Segments reports how many segment files the ledger currently spans
// (for tests and operational introspection).
func (l *Ledger) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return 0
	}
	return len(segs)
}

// Close flushes and closes the active segment. Uncommitted records are
// NOT committed — they are the crash window by design; call Commit
// first if they must survive.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable (best-effort on platforms where directories reject Sync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// EncodeState renders a State as a self-contained, single-segment ledger
// blob (open header, records, one commit) — the versioned snapshot
// format behind Session.SaveMapping. DecodeState reads it back; the two
// round-trip byte-exactly through the same codec the on-disk segments
// use.
func EncodeState(s *State, saltFP string) ([]byte, error) {
	var buf []byte
	write := func(r Record) error {
		line, err := encodeLine(r)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		return nil
	}
	if err := write(Record{T: TOpen, Schema: Schema, SaltFP: saltFP, Seg: 1}); err != nil {
		return nil, err
	}
	recs := s.records()
	for _, r := range recs {
		if err := write(r); err != nil {
			return nil, err
		}
	}
	if err := write(Record{T: TCommit, N: len(recs)}); err != nil {
		return nil, err
	}
	return buf, nil
}

// IsStateBlob sniffs whether a snapshot was written by EncodeState.
func IsStateBlob(blob []byte) bool {
	if len(blob) == 0 || blob[0] != '{' {
		return false
	}
	i := 0
	for i < len(blob) && blob[i] != '\n' {
		i++
	}
	rec, err := decodeLine(blob[:i])
	return err == nil && rec.T == TOpen && rec.Schema == Schema
}

// DecodeState parses an EncodeState blob, returning the state and the
// salt fingerprint it was written under. The same commit-gating as
// segment replay applies: a blob without a valid commit is empty, and
// corruption before the commit is an error.
func DecodeState(blob []byte) (State, string, error) {
	var (
		st      State
		saltFP  string
		seenIP  = make(map[uint32]bool)
		seenStr = make(map[string]bool)
	)
	type scanned struct {
		rec Record
		err error
	}
	var lines []scanned
	lastCommit := -1
	for start := 0; start < len(blob); {
		end := start
		for end < len(blob) && blob[end] != '\n' {
			end++
		}
		if end > start {
			rec, derr := decodeLine(blob[start:end])
			lines = append(lines, scanned{rec: rec, err: derr})
			if derr == nil && rec.T == TCommit {
				lastCommit = len(lines) - 1
			}
		}
		start = end + 1
	}
	if len(lines) == 0 {
		return State{}, "", ErrSchema
	}
	for i, ln := range lines {
		if i > lastCommit {
			break
		}
		if ln.err != nil {
			return State{}, "", fmt.Errorf("%w (line %d: %v)", ErrCorrupt, i+1, ln.err)
		}
		switch ln.rec.T {
		case TOpen:
			if ln.rec.Schema != Schema {
				return State{}, "", ErrSchema
			}
			saltFP = ln.rec.SaltFP
		case TCommit:
		default:
			st.apply(ln.rec, seenIP, seenStr)
		}
	}
	if lastCommit < 0 {
		// No commit: accept only a bare valid header (empty state).
		if lines[0].err != nil || lines[0].rec.T != TOpen || lines[0].rec.Schema != Schema {
			return State{}, "", ErrSchema
		}
		saltFP = lines[0].rec.SaltFP
	}
	return st, saltFP, nil
}
