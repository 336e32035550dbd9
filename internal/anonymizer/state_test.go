package anonymizer

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"confanon/internal/ipanon"
	"confanon/internal/store"
)

// followup is a second snapshot from the same imaginary network: it
// reuses figure1 addresses (which must map identically after a restore)
// and introduces new ones (which must continue the mapping consistently).
const followup = `hostname cr2.sfo.foo.com
!
interface Ethernet0
 ip address 1.1.1.2 255.255.255.0
!
interface Serial2/0.1 point-to-point
 ip address 3.3.3.3 255.255.255.252
!
router bgp 1111
 neighbor 2.2.2.2 remote-as 701
 neighbor 3.3.3.1 remote-as 1239
end
`

func TestSaveMappingRoundTripsFullState(t *testing.T) {
	salt := []byte("state-roundtrip-salt")
	a1 := New(Options{Salt: salt})
	a1.Session().DeclareRelation(Relation{ASN: 701, Prefix: 0x02020000, Len: 16})
	a1.AddSensitiveToken("hushhush")
	if _, ferr := a1.SafeAnonymizeText("f1", figure1); ferr != nil {
		t.Fatalf("anonymize: %v", ferr)
	}
	snap := a1.SaveMapping()
	if len(snap) == 0 {
		t.Fatalf("SaveMapping returned empty snapshot for a non-empty session")
	}
	if !store.IsStateBlob(snap) {
		t.Fatalf("SaveMapping did not produce a %s blob", store.Schema)
	}

	a2 := New(Options{Salt: salt})
	if err := a2.LoadMapping(snap); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	s1, s2 := a1.Session(), a2.Session()

	if got, want := s2.IPMapping(), s1.IPMapping(); !reflect.DeepEqual(got, want) {
		t.Errorf("IP mapping did not round-trip:\n got %v\nwant %v", got, want)
	}
	s1.recMu.RLock()
	s2.recMu.RLock()
	if !reflect.DeepEqual(s2.seenASNs, s1.seenASNs) {
		t.Errorf("seenASNs did not round-trip: got %v want %v", s2.seenASNs, s1.seenASNs)
	}
	if !reflect.DeepEqual(s2.seenWords, s1.seenWords) {
		t.Errorf("seenWords did not round-trip: got %d keys want %d", len(s2.seenWords), len(s1.seenWords))
	}
	if !reflect.DeepEqual(s2.seenIPs, s1.seenIPs) {
		t.Errorf("seenIPs did not round-trip: got %v want %v", s2.seenIPs, s1.seenIPs)
	}
	s2.recMu.RUnlock()
	s1.recMu.RUnlock()
	if !(*s2.sensTok.Load())["hushhush"] {
		t.Errorf("sensitive token did not round-trip")
	}
	if got, want := s2.Relations(), s1.Relations(); !reflect.DeepEqual(got, want) {
		t.Errorf("relations did not round-trip: got %v want %v", got, want)
	}

	// Continuation consistency: the restored session must anonymize a
	// follow-up snapshot exactly as the original session would have.
	want, ferr := a1.SafeAnonymizeText("f2", followup)
	if ferr != nil {
		t.Fatalf("original follow-up: %v", ferr)
	}
	got, ferr := a2.SafeAnonymizeText("f2", followup)
	if ferr != nil {
		t.Fatalf("restored follow-up: %v", ferr)
	}
	if got != want {
		t.Errorf("restored session diverged on follow-up output:\n got %q\nwant %q", got, want)
	}

	// An address first mapped after the restore is prefix-consistent
	// with every restored one: the images share exactly as long a
	// prefix as the originals.
	novel := uint32(0x01010180) // 1.1.1.128, in a restored subnet
	restored := s2.IPMapping()
	for _, p := range restored {
		if p.In == novel {
			t.Fatalf("fixture: %08x is already mapped", novel)
		}
	}
	img := s2.mapper().MapV4(novel)
	for _, p := range restored {
		if ipanon.LCP(p.Out, img) != ipanon.LCP(p.In, novel) {
			t.Errorf("novel %08x -> %08x breaks prefix consistency with restored %v", novel, img, p)
		}
	}
}

func TestSaveMappingRoundTripsLeakGating(t *testing.T) {
	// The restored recorder must gate the leak report exactly like the
	// original: a survival of an original token in doctored output is
	// flagged by both sessions.
	salt := []byte("leak-gate-salt")
	a1 := New(Options{Salt: salt})
	out, ferr := a1.SafeAnonymizeText("f1", figure1)
	if ferr != nil {
		t.Fatalf("anonymize: %v", ferr)
	}
	doctored := out + "leaked 1.1.1.1 here\n"
	want := a1.LeakReport(doctored)
	if len(want) == 0 {
		t.Fatalf("fixture: doctored output produced no leaks")
	}

	a2 := New(Options{Salt: salt})
	if err := a2.LoadMapping(a1.SaveMapping()); err != nil {
		t.Fatalf("LoadMapping: %v", err)
	}
	got := a2.LeakReport(doctored)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored leak report diverged:\n got %v\nwant %v", got, want)
	}
}

// TestLoadMappingRejectsLegacyBlob: the tree-only "ipa1" snapshot of
// earlier releases stored its salt in cleartext and was replayed under
// that embedded salt, never compared with the Session's. It is refused
// like any other non-v1 blob, whatever the Session's salt or IP scheme,
// and leaves the Session's mapping empty.
func TestLoadMappingRejectsLegacyBlob(t *testing.T) {
	salt := []byte("legacy-salt")
	// "ipa1", option flags, salt length, salt, pair count, (in, out) pairs.
	legacy := append([]byte("ipa1\x07"), byte(len(salt)))
	legacy = append(legacy, salt...)
	legacy = append(legacy, 0, 0, 0, 1, 1, 1, 1, 1, 0x2a, 0x2b, 0x2c, 0x2d)
	for _, opts := range []Options{
		{Salt: salt},
		{Salt: []byte("another-salt"), StatelessIP: true},
	} {
		a := New(opts)
		if err := a.LoadMapping(legacy); !errors.Is(err, store.ErrSchema) {
			t.Errorf("LoadMapping(ipa1) with salt %q = %v, want an error wrapping store.ErrSchema", opts.Salt, err)
		}
		if n, _ := a.Session().MapperCounts(); n != 0 {
			t.Errorf("rejected blob left %d IP pairs in the Session", n)
		}
	}
}

func TestLoadMappingRejectsWrongSalt(t *testing.T) {
	a1 := New(Options{Salt: []byte("salt-A")})
	if _, ferr := a1.SafeAnonymizeText("f1", figure1); ferr != nil {
		t.Fatalf("anonymize: %v", ferr)
	}
	snap := a1.SaveMapping()
	a2 := New(Options{Salt: []byte("salt-B")})
	if err := a2.LoadMapping(snap); err == nil {
		t.Fatalf("LoadMapping accepted a snapshot taken under a different salt")
	}
}

func TestSessionLedgerCommitsAtCleanBoundaries(t *testing.T) {
	salt := []byte("ledger-commit-salt")
	dir := t.TempDir()
	led, err := store.Open(dir, store.SaltFingerprint(salt))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	a := New(Options{Salt: salt})
	a.Session().SetLedger(led)

	if _, ferr := a.SafeAnonymizeText("f1", figure1); ferr != nil {
		t.Fatalf("anonymize: %v", ferr)
	}
	st := led.State()
	if len(st.IPs) == 0 || len(st.Words) == 0 || len(st.ASNs) == 0 {
		t.Fatalf("clean file boundary committed nothing: %+v", st)
	}
	if got, want := len(st.IPs), a.Session().mapper().Len(); got != want {
		t.Errorf("ledger has %d IP pairs, session mapper %d", got, want)
	}

	// A file that dies mid-way must not advance the ledger: nothing is
	// committed on the rollback path.
	SetFaultHook(func(name string, line int) {
		if name == "poison" && line == 3 {
			panic("injected")
		}
	})
	defer SetFaultHook(nil)
	if _, ferr := a.SafeAnonymizeText("poison", followup); ferr == nil {
		t.Fatalf("poisoned file did not fail")
	}
	SetFaultHook(nil)
	if got := led.State(); len(got.IPs) != len(st.IPs) {
		t.Errorf("failed file advanced the ledger: %d -> %d IP pairs", len(st.IPs), len(got.IPs))
	}

	// The aborted file's live tree entries sweep into the next clean
	// commit — required for replica consistency with the in-process
	// continuation.
	if _, ferr := a.SafeAnonymizeText("f2", followup); ferr != nil {
		t.Fatalf("follow-up: %v", ferr)
	}
	if err := a.Session().SyncLedger(); err != nil {
		t.Fatalf("SyncLedger: %v", err)
	}
	if got, want := len(led.State().IPs), a.Session().mapper().Len(); got != want {
		t.Errorf("ledger has %d IP pairs after clean commit, session mapper %d", got, want)
	}
	if err := led.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A replica replaying the ledger reproduces the session byte for
	// byte on the next snapshot.
	led2, err := store.Open(dir, store.SaltFingerprint(salt))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer led2.Close()
	replicaSess := Compile(Options{Salt: salt}).NewSession()
	if err := replicaSess.RestoreState(led2.State()); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	replica := replicaSess.Bind() // bind after restore so the worker sees the replayed mapper
	next := strings.Replace(followup, "3.3.3.3", "4.4.4.4", 1)
	want, ferr := a.SafeAnonymizeText("f3", next)
	if ferr != nil {
		t.Fatalf("original f3: %v", ferr)
	}
	got, ferr := replica.SafeAnonymizeText("f3", next)
	if ferr != nil {
		t.Fatalf("replica f3: %v", ferr)
	}
	if got != want {
		t.Errorf("replica diverged:\n got %q\nwant %q", got, want)
	}
}
