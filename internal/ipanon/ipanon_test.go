package ipanon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"confanon/internal/token"
)

func newTestTree() *Tree {
	return NewTree(DefaultOptions([]byte("test-salt")))
}

func TestIsSpecial(t *testing.T) {
	mustParse := func(s string) uint32 {
		v, ok := token.ParseIPv4(s)
		if !ok {
			t.Fatalf("bad test address %q", s)
		}
		return v
	}
	special := []string{
		"0.0.0.0", "255.255.255.255", "255.255.255.0", "255.255.0.0",
		"255.0.0.0", "128.0.0.0", "255.255.255.252", "255.255.255.128",
		"0.0.0.255", "0.0.0.3", "0.255.255.255", "0.0.255.255",
		"127.0.0.1", "127.255.255.254", "224.0.0.5", "239.255.255.255",
		"240.0.0.1", "255.255.255.254",
	}
	for _, s := range special {
		if !IsSpecial(mustParse(s)) {
			t.Errorf("IsSpecial(%s) = false, want true", s)
		}
	}
	normal := []string{
		"1.1.1.1", "10.0.0.1", "192.168.1.1", "12.0.0.0", "128.2.0.0",
		"198.51.100.7", "126.255.255.255", "223.255.255.1",
	}
	for _, s := range normal {
		if IsSpecial(mustParse(s)) {
			t.Errorf("IsSpecial(%s) = true, want false", s)
		}
	}
}

func TestClass(t *testing.T) {
	cases := []struct {
		ip    string
		class byte
	}{
		{"1.2.3.4", 'A'}, {"127.0.0.1", 'A'}, {"128.0.0.1", 'B'},
		{"191.255.0.0", 'B'}, {"192.0.0.1", 'C'}, {"223.255.255.255", 'C'},
		{"224.0.0.1", 'D'}, {"239.1.1.1", 'D'}, {"240.0.0.1", 'E'},
		{"255.255.255.255", 'E'},
	}
	for _, c := range cases {
		v, _ := token.ParseIPv4(c.ip)
		if got := Class(v); got != c.class {
			t.Errorf("Class(%s) = %c, want %c", c.ip, got, c.class)
		}
	}
}

func TestTreeSpecialFixedPoints(t *testing.T) {
	tr := newTestTree()
	for _, ip := range []uint32{0, 0xFFFFFFFF, 0xFFFFFF00, 0x000000FF, 0x7F000001, 0xE0000005} {
		if got := tr.MapV4(ip); got != ip {
			t.Errorf("special %s mapped to %s, want fixed point",
				token.FormatIPv4(ip), token.FormatIPv4(got))
		}
	}
}

func TestTreeClassPreserving(t *testing.T) {
	tr := newTestTree()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		ip := rng.Uint32()
		out := tr.MapV4(ip)
		if IsSpecial(ip) {
			continue
		}
		if Class(out) != Class(ip) {
			t.Fatalf("class changed: %s (class %c) -> %s (class %c)",
				token.FormatIPv4(ip), Class(ip), token.FormatIPv4(out), Class(out))
		}
	}
}

func TestTreeInjective(t *testing.T) {
	tr := newTestTree()
	rng := rand.New(rand.NewSource(11))
	outs := make(map[uint32]uint32)
	for i := 0; i < 20000; i++ {
		ip := rng.Uint32()
		out := tr.MapV4(ip)
		if prev, ok := outs[out]; ok && prev != ip {
			t.Fatalf("collision: %s and %s both map to %s",
				token.FormatIPv4(prev), token.FormatIPv4(ip), token.FormatIPv4(out))
		}
		outs[out] = ip
	}
}

// TestTreePrefixPreserving checks the Xu-style property on pairs whose
// images were not chased out of the special range (chasing intentionally
// trades exact prefix preservation for special-address fixity; the paper
// proves the chase keeps the scheme injective and structure preserving).
func TestTreePrefixPreserving(t *testing.T) {
	tr := newTestTree()
	rng := rand.New(rand.NewSource(13))
	type rec struct{ in, out uint32 }
	var clean []rec
	for i := 0; i < 4000; i++ {
		ip := rng.Uint32()
		if IsSpecial(ip) {
			continue
		}
		out := tr.rawMap(ip)
		if IsSpecial(out) {
			continue // would be chased
		}
		clean = append(clean, rec{ip, out})
	}
	for i := 0; i < len(clean); i += 7 {
		for j := i + 1; j < len(clean); j += 13 {
			a, b := clean[i], clean[j]
			if LCP(a.in, b.in) != LCP(a.out, b.out) {
				t.Fatalf("prefix not preserved: lcp(%s,%s)=%d but lcp(%s,%s)=%d",
					token.FormatIPv4(a.in), token.FormatIPv4(b.in), LCP(a.in, b.in),
					token.FormatIPv4(a.out), token.FormatIPv4(b.out), LCP(a.out, b.out))
			}
		}
	}
}

func TestTreeRawMapIsPrefixPreservingQuick(t *testing.T) {
	tr := NewTree(Options{Salt: []byte("q")}) // no shaping: pure bijection
	f := func(a, b uint32) bool {
		return LCP(tr.rawMap(a), tr.rawMap(b)) == LCP(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTreeSubnetPreserving(t *testing.T) {
	tr := newTestTree()
	// Map subnet addresses before any host within them: the trailing
	// zeros must be preserved exactly.
	subnets := []struct {
		addr string
		bits int // trailing zero bits
	}{
		{"10.1.0.0", 16}, {"10.2.4.0", 8}, {"172.17.8.0", 8},
		{"192.168.24.0", 8}, {"12.100.0.0", 16},
	}
	for _, s := range subnets {
		v, _ := token.ParseIPv4(s.addr)
		out := tr.MapV4(v)
		if out<<(32-uint(s.bits)) != 0 {
			t.Errorf("subnet address %s mapped to %s: trailing %d zero bits not preserved",
				s.addr, token.FormatIPv4(out), s.bits)
		}
	}
	// Subnet containment: a host inside a mapped /24 stays inside the
	// mapped /24.
	net, _ := token.ParseIPv4("10.2.4.0")
	host, _ := token.ParseIPv4("10.2.4.77")
	mn, mh := tr.MapV4(net), tr.MapV4(host)
	if mn>>8 != mh>>8 {
		t.Errorf("containment broken: net %s host %s", token.FormatIPv4(mn), token.FormatIPv4(mh))
	}
}

func TestTreeDeterministicUnderSalt(t *testing.T) {
	addrs := make([]uint32, 500)
	rng := rand.New(rand.NewSource(17))
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	t1 := NewTree(DefaultOptions([]byte("salt-a")))
	t2 := NewTree(DefaultOptions([]byte("salt-a")))
	t3 := NewTree(DefaultOptions([]byte("salt-b")))
	same, diff := 0, 0
	for _, a := range addrs {
		o1, o2, o3 := t1.MapV4(a), t2.MapV4(a), t3.MapV4(a)
		if o1 != o2 {
			t.Fatalf("same salt, different mapping for %s", token.FormatIPv4(a))
		}
		if o1 == o3 {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different salts produced identical mappings")
	}
}

func TestTreeIdempotentLookups(t *testing.T) {
	tr := newTestTree()
	a := uint32(0x0A010203)
	first := tr.MapV4(a)
	for i := 0; i < 5; i++ {
		if got := tr.MapV4(a); got != first {
			t.Fatalf("lookup %d changed: %v != %v", i, got, first)
		}
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestTreeMapPrefix(t *testing.T) {
	tr := newTestTree()
	addr, _ := token.ParseIPv4("10.1.2.3")
	p := tr.MapPrefix(addr, 24)
	if p&0xFF != 0 {
		t.Errorf("MapPrefix(/24) host bits nonzero: %s", token.FormatIPv4(p))
	}
	net, _ := token.ParseIPv4("10.1.2.0")
	if got := tr.MapV4(net); got != p {
		t.Errorf("MapPrefix disagrees with MapV4 on network address: %s vs %s",
			token.FormatIPv4(p), token.FormatIPv4(got))
	}
	if got := tr.MapPrefix(addr, 0); got != 0 {
		t.Errorf("MapPrefix(/0) = %s, want 0.0.0.0", token.FormatIPv4(got))
	}
	host := tr.MapPrefix(addr, 32)
	if host != tr.MapV4(addr) {
		t.Error("MapPrefix(/32) disagrees with MapV4")
	}
}

func TestCryptoPAnPrefixPreserving(t *testing.T) {
	var key [32]byte
	copy(key[:], "this-is-a-32-byte-test-key-....!")
	c, err := NewCryptoPAn(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	addrs := make([]uint32, 200)
	outs := make([]uint32, 200)
	for i := range addrs {
		addrs[i] = rng.Uint32()
		outs[i] = c.MapV4(addrs[i])
	}
	for i := 0; i < len(addrs); i += 3 {
		for j := i + 1; j < len(addrs); j += 5 {
			if LCP(addrs[i], addrs[j]) != LCP(outs[i], outs[j]) {
				t.Fatalf("CryptoPAn prefix not preserved for %s,%s",
					token.FormatIPv4(addrs[i]), token.FormatIPv4(addrs[j]))
			}
		}
	}
}

func TestCryptoPAnDeterministic(t *testing.T) {
	var key [32]byte
	key[0] = 42
	c1, _ := NewCryptoPAn(key)
	c2, _ := NewCryptoPAn(key)
	key[0] = 43
	c3, _ := NewCryptoPAn(key)
	diff := 0
	for _, a := range []uint32{1, 0x0A000001, 0xC0A80101, 0xDEADBEEF} {
		if c1.MapV4(a) != c2.MapV4(a) {
			t.Errorf("same key, different mapping for %#x", a)
		}
		if c1.MapV4(a) != c3.MapV4(a) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different keys produced identical mappings")
	}
}

func TestLCP(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int
	}{
		{0, 0, 32},
		{0, 1, 31},
		{0, 0x80000000, 0},
		{0xFFFF0000, 0xFFFF8000, 16},
		{0x0A000000, 0x0A000001, 31},
	}
	for _, c := range cases {
		if got := LCP(c.a, c.b); got != c.want {
			t.Errorf("LCP(%#x,%#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestChaseNeverReturnsSpecial(t *testing.T) {
	tr := newTestTree()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30000; i++ {
		ip := rng.Uint32()
		out := tr.MapV4(ip)
		if !IsSpecial(ip) && IsSpecial(out) {
			t.Fatalf("non-special %s mapped to special %s",
				token.FormatIPv4(ip), token.FormatIPv4(out))
		}
	}
}

func TestMaskDetection(t *testing.T) {
	// Every contiguous mask and its complement must be special.
	for i := 0; i <= 32; i++ {
		var m uint32
		if i > 0 {
			m = ^uint32(0) << (32 - uint(i))
		}
		if !IsSpecial(m) {
			t.Errorf("netmask /%d (%s) not special", i, token.FormatIPv4(m))
		}
		if !IsSpecial(^m) {
			t.Errorf("wildcard for /%d (%s) not special", i, token.FormatIPv4(^m))
		}
	}
}

func BenchmarkTreeMapV4(b *testing.B) {
	tr := newTestTree()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MapV4(addrs[i%len(addrs)])
	}
}

func BenchmarkCryptoPAnMapV4(b *testing.B) {
	var key [32]byte
	c, _ := NewCryptoPAn(key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MapV4(uint32(i) * 2654435761)
	}
}

func TestCryptoMapperInterface(t *testing.T) {
	var _ Mapper = NewTree(DefaultOptions(nil))
	var _ Mapper = NewCryptoMapper(nil)
}

func TestCryptoMapperSpecialsAndDeterminism(t *testing.T) {
	m1 := NewCryptoMapper([]byte("s"))
	m2 := NewCryptoMapper([]byte("s"))
	m3 := NewCryptoMapper([]byte("t"))
	for _, ip := range []uint32{0, 0xFFFFFF00, 0x7F000001, 0xE0000001} {
		if m1.MapV4(ip) != ip {
			t.Errorf("special %#x not fixed", ip)
		}
	}
	diff := 0
	for _, ip := range []uint32{0x0C010203, 0x81020304, 0xC0A80101} {
		if m1.MapV4(ip) != m2.MapV4(ip) {
			t.Errorf("same salt diverged at %#x", ip)
		}
		if m1.MapV4(ip) != m3.MapV4(ip) {
			diff++
		}
		if IsSpecial(m1.MapV4(ip)) {
			t.Errorf("non-special %#x mapped into special range", ip)
		}
	}
	if diff == 0 {
		t.Error("different salts produced identical mappings")
	}
	if m1.Len() == 0 || len(m1.Mapping()) != m1.Len() {
		t.Errorf("mapping record inconsistent: len=%d pairs=%d", m1.Len(), len(m1.Mapping()))
	}
}

func TestCryptoMapperConcurrent(t *testing.T) {
	m := NewCryptoMapper([]byte("conc"))
	done := make(chan map[uint32]uint32, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint32) {
			out := make(map[uint32]uint32)
			for i := uint32(0); i < 500; i++ {
				ip := seed*2654435761 + i*97
				out[ip] = m.MapV4(ip)
			}
			done <- out
		}(uint32(g % 3)) // overlapping ranges on purpose
	}
	merged := make(map[uint32]uint32)
	for g := 0; g < 8; g++ {
		for ip, out := range <-done {
			if prev, ok := merged[ip]; ok && prev != out {
				t.Fatalf("concurrent mapping inconsistent at %#x", ip)
			}
			merged[ip] = out
		}
	}
}

func TestCryptoMapperPrefixPreserving(t *testing.T) {
	m := NewCryptoMapper([]byte("pp"))
	rng := rand.New(rand.NewSource(5))
	type rec struct{ in, out uint32 }
	var recs []rec
	for i := 0; i < 300; i++ {
		ip := rng.Uint32()
		if IsSpecial(ip) {
			continue
		}
		out := m.MapV4(ip)
		// Chased addresses lose exact prefix preservation; skip them by
		// checking the raw mapping agrees.
		if m.c.MapV4(ip) != out {
			continue
		}
		recs = append(recs, rec{ip, out})
	}
	for i := 0; i < len(recs); i += 5 {
		for j := i + 1; j < len(recs); j += 9 {
			if LCP(recs[i].in, recs[j].in) != LCP(recs[i].out, recs[j].out) {
				t.Fatalf("prefix broken between %#x and %#x", recs[i].in, recs[j].in)
			}
		}
	}
}

// TestDoomAvoidance pins the flip-retry at resolution time: with
// PassSpecial on, no raw image of a non-special input may land inside
// 127/8 or class D/E (every completion of those prefixes is special,
// which would condemn the whole input subtree to the collision chase).
// Checked across many salts because the doomed-prefix event is salt
// dependent — seed 7001's network hit exactly this with 10/8 → 127/8.
func TestDoomAvoidance(t *testing.T) {
	for s := 0; s < 40; s++ {
		tr := NewTree(DefaultOptions([]byte{byte(s), byte(s >> 8), 'd'}))
		rng := rand.New(rand.NewSource(int64(s)))
		for i := 0; i < 2000; i++ {
			ip := rng.Uint32()
			if IsSpecial(ip) {
				continue
			}
			tr.mu.Lock()
			raw := tr.rawMap(ip)
			tr.mu.Unlock()
			if raw>>24 == 127 || raw >= 0xE0000000 {
				t.Fatalf("salt %d: rawMap(%s) = %s lands in a doomed block",
					s, token.FormatIPv4(ip), token.FormatIPv4(raw))
			}
		}
	}
}

// TestChaseStaysInParentPrefix pins the classful-coverage fix (ROADMAP
// item 4): when a classful network address like 10.0.0.0 maps raw to a
// special address, the chase must resolve it inside the already-fixed
// image /8 (so the classful mask of the image still covers the members)
// and must keep the subnet shape (trailing zero bytes) via its stride.
func TestChaseStaysInParentPrefix(t *testing.T) {
	hits := 0
	for s := 0; s < 400; s++ {
		salt := []byte{byte(s), byte(s >> 8), 'c'}
		tr := NewTree(DefaultOptions(salt))
		tr.mu.Lock()
		raw := tr.rawMap(10 << 24)
		tr.mu.Unlock()
		if !IsSpecial(raw) {
			continue
		}
		hits++
		out := tr.MapPrefix(10<<24, 8)
		if out>>24 != raw>>24 {
			t.Errorf("salt %d: chase left the image /8: raw %s, out %s",
				s, token.FormatIPv4(raw), token.FormatIPv4(out))
		}
		if out&0xFF != 0 {
			t.Errorf("salt %d: chase broke the subnet shape: raw %s, out %s",
				s, token.FormatIPv4(raw), token.FormatIPv4(out))
		}
		if IsSpecial(out) {
			t.Errorf("salt %d: chase returned special %s", s, token.FormatIPv4(out))
		}
	}
	if hits == 0 {
		t.Fatal("no salt produced a special raw image for 10.0.0.0; test is vacuous")
	}
}
