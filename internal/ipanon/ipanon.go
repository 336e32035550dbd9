// Package ipanon implements prefix-preserving IPv4 address anonymization.
//
// Two schemes are provided, mirroring the two families the paper (§4.3)
// discusses:
//
//   - Tree is a data-structure-based scheme extending Minshall's tcpdpriv
//     "-a50" algorithm. Because the mapping is shaped as entries are added
//     to the structure, it can be made class-preserving and
//     subnet-address-preserving, and special addresses (netmasks, wildcard
//     masks, multicast, loopback, broadcast) can be passed through
//     unchanged, with recursive remapping of collisions. This is the
//     scheme the paper adopts for config anonymization.
//
//   - CryptoPAn is the cryptography-based scheme of Xu et al., which
//     requires only a key to be shared for consistent mapping (amenable to
//     parallelization) but cannot easily be shaped to satisfy the config
//     requirements. It is included as the comparison baseline.
//
// Both schemes are prefix-preserving in the sense of Xu et al.: for any
// two addresses a and b, the anonymized images share exactly as many
// leading bits as a and b do (Tree guarantees this for addresses whose
// image does not collide with a special address; collisions are chased as
// described below and in the paper).
package ipanon

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"confanon/internal/token"
)

// Scheme is a prefix-preserving IPv4 address mapping.
type Scheme interface {
	// MapV4 maps one 32-bit IPv4 address.
	MapV4(ip uint32) uint32
}

// IsSpecial reports whether an address has protocol-assigned meaning and
// must therefore pass through anonymization unchanged (§4.3: "all special
// IP addresses (e.g., netmasks, multicast) are passed through unchanged").
//
// The special set comprises contiguous netmasks (255.255.0.0, including
// 0.0.0.0 and 255.255.255.255), their complements as used in Cisco
// wildcard masks (0.0.0.255), the loopback block 127.0.0.0/8, and the
// class D and E spaces (multicast and reserved, 224.0.0.0 and above).
func IsSpecial(ip uint32) bool {
	if isMask(ip) || isMask(^ip) {
		return true
	}
	if ip>>24 == 127 { // loopback
		return true
	}
	if ip >= 0xE0000000 { // class D (multicast) and class E (reserved)
		return true
	}
	return false
}

// isMask reports whether ip is a contiguous netmask: some number of one
// bits followed by zero bits (including all-zeros and all-ones).
func isMask(ip uint32) bool {
	// A contiguous mask m satisfies: ^m+1 is a power of two (or m==0).
	inv := ^ip
	return inv&(inv+1) == 0
}

// Class returns the classful-addressing class letter of ip ('A'..'E').
func Class(ip uint32) byte {
	switch {
	case ip>>31 == 0:
		return 'A'
	case ip>>30 == 0b10:
		return 'B'
	case ip>>29 == 0b110:
		return 'C'
	case ip>>28 == 0b1110:
		return 'D'
	default:
		return 'E'
	}
}

// Options configures a Tree.
type Options struct {
	// Salt keys the pseudo-random bit choices. Two Trees with the same
	// salt fed addresses in the same order produce identical mappings.
	Salt []byte
	// ClassPreserving forces class A addresses to map to class A
	// addresses, class B to class B, and so on, as required by classful
	// commands such as those configuring RIP and EIGRP.
	ClassPreserving bool
	// SubnetPreserving biases the mapping so that subnet addresses
	// (host part all zeros) map to subnet addresses, improving human
	// readability of the anonymized configurations.
	SubnetPreserving bool
	// PassSpecial passes special addresses (IsSpecial) through unchanged
	// and recursively remaps non-special addresses whose image would
	// collide with the special range.
	PassSpecial bool
}

// DefaultOptions returns the configuration the paper uses: class
// preserving, subnet-address preserving, specials passed through.
func DefaultOptions(salt []byte) Options {
	return Options{Salt: salt, ClassPreserving: true, SubnetPreserving: true, PassSpecial: true}
}

// node is one internal node of the mapping tree. A node at depth d
// represents the input prefix of length d consumed so far; flip records
// whether the output bit at depth d is the input bit negated. Because the
// flip belongs to the prefix (the parent), both branches below it are
// transformed identically, which makes the raw tree mapping a
// prefix-preserving bijection of the 32-bit space: inputs diverging at
// bit d produce outputs diverging at bit d.
type node struct {
	children [2]*node
	flip     bool
	flipSet  bool
}

// Tree is the extended Minshall-style table-driven anonymizer. The zero
// value is not usable; construct with NewTree.
//
// Tree is safe for concurrent use, with a two-phase design: addresses
// whose mapping is already resolved are answered lock-free from the seen
// cache, while first-time resolutions take a short write lock around the
// node walk (including the recursive collision remap). The mapping an
// address resolves to still depends on insertion order — that is inherent
// to the shaped scheme — so callers that need a deterministic mapping
// across runs must feed first-time addresses in a deterministic order
// (see the corpus census/replay mode in the confanon package).
type Tree struct {
	opts Options
	// mu guards first-time resolution: the node walk (rawMap), the
	// insertion log, the prf buffer, and Save. Resolved addresses are
	// answered from seen without taking it.
	mu   sync.Mutex
	root *node
	// seen caches fully-resolved mappings (uint32 → uint32) and is the
	// lock-free read path; order records insertion order, which the
	// shaped mapping depends on and persistence must replay.
	seen  sync.Map
	count atomic.Int64
	order []Pair
	// prfBuf is the reusable salt||path||depth||"flip" buffer for node
	// resolution, avoiding an allocation per created node. Only touched
	// under mu.
	prfBuf []byte
	// outs records every output emitted so far. The collision chase
	// rejects candidates in this set (and a raw image that lands on a
	// previously chase-emitted output is itself chased), which makes the
	// resolved mapping injective by construction at every point in time.
	// Only touched under mu.
	outs map[uint32]struct{}
	// remaps counts collision-chase steps: how many candidates were
	// rejected because a raw image landed in the special range or on an
	// already-emitted output (§4.3).
	remaps atomic.Int64
}

// NewTree returns an empty mapping tree with the given options.
func NewTree(opts Options) *Tree {
	buf := make([]byte, len(opts.Salt)+9)
	copy(buf, opts.Salt)
	copy(buf[len(opts.Salt)+5:], "flip")
	return &Tree{opts: opts, root: &node{}, prfBuf: buf, outs: make(map[uint32]struct{})}
}

// prfBit derives a deterministic pseudo-random flip bit for the tree node
// identified by the input prefix (path, depth) under the tree salt.
func (t *Tree) prfBit(path uint32, depth int) bool {
	n := len(t.opts.Salt)
	binary.BigEndian.PutUint32(t.prfBuf[n:n+4], path)
	t.prfBuf[n+4] = byte(depth)
	h := sha1.Sum(t.prfBuf)
	return h[0]&1 == 1
}

// rawMap walks ip through the tree, creating and resolving nodes as
// needed, and returns the XOR-flip image. This is the pure
// prefix-preserving bijection before special-address chasing.
func (t *Tree) rawMap(ip uint32) uint32 {
	var out uint32
	n := t.root
	for depth := 0; depth < 32; depth++ {
		bit := ip >> (31 - uint(depth)) & 1
		if !n.flipSet {
			n.flipSet = true
			path := prefixBits(ip, depth)
			switch {
			case t.opts.ClassPreserving && depth < 4 && allOnes(path, depth):
				// The class of an address is determined by its
				// leading ones: "0"=A, "10"=B, "110"=C, "1110"=D,
				// "1111"=E. Holding the flip at zero on the
				// all-ones spine (and the root) maps every class
				// onto itself while freezing only the bits that
				// encode the class.
				n.flip = false
			case t.opts.PassSpecial && depth <= 7 &&
				path == prefixBits(0x7F000000, depth):
				// Doom pin: an image prefix of 127/8 (or, below,
				// the class D/E prefix 111) is a block whose every
				// completion is special, which would condemn the
				// whole input subtree that draws it to the
				// collision chase and destroy its structure. The
				// raw map is a prefix-preserving bijection, so the
				// only way to keep every *non-special* input out of
				// the block is to make the block map to itself:
				// identity-pin the flips along the 127/8 input path
				// (127.x inputs themselves are special and pass
				// through as fixed points, so nothing is lost).
				n.flip = false
			case t.opts.PassSpecial && depth < 3 && allOnes(path, depth):
				// Same doom pin for class D/E (224.0.0.0 and up —
				// all special): pin 111 → 111. Redundant under
				// ClassPreserving's spine pin above, load-bearing
				// without it.
				n.flip = false
			case t.opts.SubnetPreserving && trailingZeros(ip, depth):
				// Node first resolved while the remaining input
				// suffix is all zeros: keep the suffix zero so
				// subnet addresses map to subnet addresses
				// (best-effort: a node first resolved by a host
				// address keeps its random flip).
				n.flip = false
			default:
				n.flip = t.prfBit(path, depth)
			}
		}
		outBit := bit
		if n.flip {
			outBit ^= 1
		}
		out = out<<1 | outBit
		child := n.children[bit]
		if child == nil {
			child = &node{}
			n.children[bit] = child
		}
		n = child
	}
	return out
}

// prefixBits returns the first depth bits of ip, left-aligned, with the
// remaining bits zeroed.
func prefixBits(ip uint32, depth int) uint32 {
	if depth == 0 {
		return 0
	}
	return ip >> (32 - uint(depth)) << (32 - uint(depth))
}

// allOnes reports whether the left-aligned prefix of the given depth is
// all one bits (true for depth zero, the root).
func allOnes(path uint32, depth int) bool {
	if depth == 0 {
		return true
	}
	return path == ^uint32(0)<<(32-uint(depth))
}

// trailingZeros reports whether bits depth..31 of ip are all zero.
func trailingZeros(ip uint32, depth int) bool {
	if depth == 0 {
		return ip == 0
	}
	return ip<<uint(depth) == 0
}

// MapV4 maps ip under the configured scheme. Special addresses are fixed
// points when PassSpecial is set. When the raw tree image of a non-special
// address lands in the special range — or on an output an earlier chase
// already emitted — the image is remapped ("we recursively map s until
// there is no collision") by chase: a nearest-free scan upward from the
// raw image. Scanning (rather than re-walking the raw bijection, which
// can leave the image's prefix entirely) keeps a chased subnet address
// inside its already-fixed parent prefix: `network 10.0.0.0` whose raw
// image is 0.0.0.0 resolves to the nearest free non-special address in
// the image /8, so classful coverage survives. Injectivity holds by
// construction: every emitted output is recorded in t.outs and no
// candidate colliding with that set is ever accepted (raw images of
// distinct inputs are distinct, so only chase-emitted outputs can
// collide, and those are in the set).
func (t *Tree) MapV4(ip uint32) uint32 {
	if out, ok := t.seen.Load(ip); ok {
		return out.(uint32)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Double-check under the lock: another goroutine may have resolved
	// the address between the fast-path miss and lock acquisition.
	if out, ok := t.seen.Load(ip); ok {
		return out.(uint32)
	}
	var out uint32
	if t.opts.PassSpecial && IsSpecial(ip) {
		out = ip
	} else {
		out = t.rawMap(ip)
		if t.opts.PassSpecial {
			out = t.chase(ip, out)
		}
	}
	t.seen.Store(ip, out)
	t.count.Add(1)
	t.outs[out] = struct{}{}
	t.order = append(t.order, Pair{In: ip, Out: out})
	return out
}

// chase resolves a collision of the raw image with the special range or
// a previously emitted output: scan upward from the raw image, skipping
// specials (jumping the contiguous loopback and class-D/E blocks in one
// step) and taken outputs, wrapping within the input's class when class
// preservation is on. The scan stride preserves the raw image's trailing
// zeros (up to /24 granularity), so a chased subnet address resolves to
// the nearest free *subnet* address — inside the already-fixed parent
// prefix when one exists, which is what keeps classful coverage intact.
// Called under t.mu.
func (t *Tree) chase(ip, raw uint32) uint32 {
	_, taken := t.outs[raw]
	if !IsSpecial(raw) && !taken {
		return raw
	}
	// Wrap bounds: the whole space, or the input's class when the
	// mapping is class-preserving (class D/E inputs are special and
	// never reach the chase, so lo is always below the class-D base).
	lo, hi := uint32(0), ^uint32(0)
	if t.opts.ClassPreserving {
		switch Class(ip) {
		case 'A':
			lo, hi = 0, 0x7FFFFFFF
		case 'B':
			lo, hi = 0x80000000, 0xBFFFFFFF
		default: // 'C'
			lo, hi = 0xC0000000, 0xDFFFFFFF
		}
	}
	// Stride: keep up to 8 trailing zero bits of the raw image, so a
	// subnet-shaped image stays subnet-shaped. All block boundaries
	// below (class bases, 127/8, 128/8, class D base) are multiples of
	// every possible stride, so alignment survives jumps and wraps.
	stride := uint32(1)
	if t.opts.SubnetPreserving {
		tz := bits.TrailingZeros32(raw) // 32 for raw == 0
		if tz > 8 {
			tz = 8
		}
		stride = 1 << uint(tz)
	}
	step := func(c uint32) uint32 {
		switch {
		case c>>24 == 127: // jump the loopback /8
			c = 128 << 24
		case c >= 0xE0000000: // class D/E: nothing above is usable
			c = lo
		default:
			c += stride
		}
		if c < lo || c > hi {
			c = lo
		}
		return c
	}
	c := raw
	for {
		t.remaps.Add(1)
		c = step(c)
		if c == raw {
			// Scanned the whole range without a free slot; cannot
			// happen before 2^31-ish resolutions exhaust a class.
			panic("ipanon: address space exhausted during collision chase")
		}
		if IsSpecial(c) {
			continue
		}
		if _, ok := t.outs[c]; ok {
			continue
		}
		return c
	}
}

// MapPrefix maps the network address of a prefix: the address is masked to
// its first length bits and mapped, so the host part walks the all-zeros
// path (which the subnet-preserving policy pins to zero on first use). The
// result therefore agrees with MapV4 on the network address itself.
func (t *Tree) MapPrefix(addr uint32, length int) uint32 {
	masked := addr
	if length <= 0 {
		masked = 0
	} else if length < 32 {
		masked &= ^uint32(0) << (32 - uint(length))
	}
	return t.MapV4(masked)
}

// Mapping returns a copy of every (input, output) pair resolved so far,
// sorted by input, for reporting and for the validation suites.
func (t *Tree) Mapping() []Pair {
	t.mu.Lock()
	pairs := append([]Pair(nil), t.order...)
	t.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].In < pairs[j].In })
	return pairs
}

// Since returns the pairs resolved at insertion index n and later, in
// insertion order — the delta a persistence layer appends after having
// already recorded the first n pairs. Since(0) is the full insertion-
// order log (unlike Mapping, which sorts by input).
func (t *Tree) Since(n int) []Pair {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n >= len(t.order) {
		return nil
	}
	return append([]Pair(nil), t.order[n:]...)
}

// Len reports how many distinct addresses have been resolved.
func (t *Tree) Len() int { return int(t.count.Load()) }

// Remaps reports how many collision-chase steps the tree has taken:
// raw images that landed in the special range and were recursively
// remapped. Zero means every address resolved on the first try, i.e.
// the shaping guarantees (exact LCP preservation) held everywhere.
func (t *Tree) Remaps() int64 { return t.remaps.Load() }

// Pair is one resolved address mapping.
type Pair struct{ In, Out uint32 }

// String renders the pair in dotted-quad form.
func (p Pair) String() string {
	return fmt.Sprintf("%s -> %s", token.FormatIPv4(p.In), token.FormatIPv4(p.Out))
}

// CryptoPAn is the cryptography-based prefix-preserving scheme of Xu et
// al., implemented with AES-128 as the underlying pseudo-random function.
// It is stateless apart from the key: any party holding the key computes
// the same mapping, which is what makes it amenable to parallelization.
type CryptoPAn struct {
	block cipher.Block
	pad   [16]byte
}

// NewCryptoPAn creates a CryptoPAn mapper. The 32-byte key is split into
// an AES-128 key (first 16 bytes) and a secret padding block (last 16,
// encrypted once to derive the pad).
func NewCryptoPAn(key [32]byte) (*CryptoPAn, error) {
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	c := &CryptoPAn{block: block}
	block.Encrypt(c.pad[:], key[16:])
	return c, nil
}

// MapV4 maps ip prefix-preservingly: output bit i is input bit i XOR the
// most significant bit of AES(pad with the first i input bits substituted).
func (c *CryptoPAn) MapV4(ip uint32) uint32 {
	var out uint32
	var in [16]byte
	for i := 0; i < 32; i++ {
		copy(in[:], c.pad[:])
		if i > 0 {
			prefix := ip >> (32 - uint(i)) << (32 - uint(i))
			padWord := binary.BigEndian.Uint32(c.pad[:4])
			var mask uint32 = ^uint32(0) << (32 - uint(i))
			binary.BigEndian.PutUint32(in[:4], prefix|padWord&^mask)
		}
		var enc [16]byte
		c.block.Encrypt(enc[:], in[:])
		flip := uint32(enc[0] >> 7)
		bit := ip >> (31 - uint(i)) & 1
		out = out<<1 | (bit ^ flip)
	}
	return out
}

// LCP returns the length of the longest common prefix of two 32-bit
// addresses, the quantity prefix-preserving schemes must conserve.
func LCP(a, b uint32) int {
	x := a ^ b
	if x == 0 {
		return 32
	}
	n := 0
	for x>>31 == 0 {
		x <<= 1
		n++
	}
	return n
}

// Mapper is the address-mapping interface the anonymizer consumes: Tree
// satisfies it, and CryptoMapper adapts CryptoPAn to it. The two
// implementations embody the §4.3 trade-off — the tree can be shaped
// (class/subnet/special preservation) but is stateful and order-dependent;
// the cryptographic mapper needs only the key, so independent workers map
// consistently without sharing state.
type Mapper interface {
	MapV4(ip uint32) uint32
	MapPrefix(addr uint32, length int) uint32
	Mapping() []Pair
	Len() int
	// Remaps counts collision-chase steps taken so far (images that
	// landed in the special range and were recursively remapped).
	Remaps() int64
	// Since returns the pairs resolved at insertion index n and later,
	// in insertion order — the incremental delta the durable mapping
	// ledger appends at commit points.
	Since(n int) []Pair
}

// CryptoMapper adapts CryptoPAn to the Mapper interface, recording
// resolved pairs (under a mutex, so it is safe for concurrent use) for
// the leak report. Special addresses pass through unchanged, as in the
// tree scheme; class and subnet-address preservation are NOT provided —
// that is the documented cost of the stateless scheme.
type CryptoMapper struct {
	c  *CryptoPAn
	mu sync.Mutex
	// seen records resolved pairs in first-seen order.
	seen  map[uint32]uint32
	order []Pair
	// remaps counts collision-chase steps; atomic because the chase
	// runs outside the mutex.
	remaps atomic.Int64
}

// NewCryptoMapper derives a CryptoMapper from an owner salt.
func NewCryptoMapper(salt []byte) *CryptoMapper {
	var key [32]byte
	h1 := sha1.Sum(append([]byte("cryptopan-key-1/"), salt...))
	h2 := sha1.Sum(append([]byte("cryptopan-key-2/"), salt...))
	copy(key[:16], h1[:16])
	copy(key[16:], h2[:16])
	c, err := NewCryptoPAn(key)
	if err != nil {
		// aes.NewCipher only fails on bad key sizes, which cannot
		// happen with the fixed 16-byte slice above.
		panic("ipanon: " + err.Error())
	}
	return &CryptoMapper{c: c, seen: make(map[uint32]uint32)}
}

// MapV4 maps one address; specials are fixed points.
func (m *CryptoMapper) MapV4(ip uint32) uint32 {
	m.mu.Lock()
	if out, ok := m.seen[ip]; ok {
		m.mu.Unlock()
		return out
	}
	m.mu.Unlock()
	out := ip
	if !IsSpecial(ip) {
		out = m.c.MapV4(ip)
		// The raw crypto mapping may land in the special range; chase
		// like the tree does (the permutation argument is identical).
		for IsSpecial(out) {
			out = m.c.MapV4(out)
			m.remaps.Add(1)
		}
	}
	m.mu.Lock()
	if _, ok := m.seen[ip]; !ok {
		m.seen[ip] = out
		m.order = append(m.order, Pair{In: ip, Out: out})
	}
	m.mu.Unlock()
	return out
}

// MapPrefix maps the masked network address. No zero-host guarantee: the
// stateless scheme cannot be shaped.
func (m *CryptoMapper) MapPrefix(addr uint32, length int) uint32 {
	masked := addr
	if length <= 0 {
		masked = 0
	} else if length < 32 {
		masked &= ^uint32(0) << (32 - uint(length))
	}
	return m.MapV4(masked)
}

// Mapping returns resolved pairs sorted by input.
func (m *CryptoMapper) Mapping() []Pair {
	m.mu.Lock()
	pairs := append([]Pair(nil), m.order...)
	m.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].In < pairs[j].In })
	return pairs
}

// Len reports how many distinct addresses have been resolved.
func (m *CryptoMapper) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.seen)
}

// Since returns the pairs resolved at insertion index n and later, in
// first-seen order (see Tree.Since).
func (m *CryptoMapper) Since(n int) []Pair {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n >= len(m.order) {
		return nil
	}
	return append([]Pair(nil), m.order[n:]...)
}

// Remaps reports how many collision-chase steps have been taken.
func (m *CryptoMapper) Remaps() int64 { return m.remaps.Load() }
