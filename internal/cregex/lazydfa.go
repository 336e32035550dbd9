package cregex

import (
	"math/bits"
	"strconv"
	"strings"
)

// Lazy DFA for fast language enumeration. Language() applies the regexp
// to all 2^16 values of the universe; simulating the NFA per value costs
// O(len * states) each, whereas the subset-construction DFA costs O(len)
// per value after each distinct state set has been expanded once.
//
// Boundary assertions keep this subtle: a state set reached mid-token must
// not have crossed boundary edges, but acceptance is tested as if the
// token ended at the current position. Each cached DFA state therefore
// stores its mid-token closure and a lazily computed accept flag that
// applies the boundary closure.

type dnode struct {
	set    []bool
	trans  map[byte]*dnode
	accept bool
}

type lazyDFA struct {
	prog  *program
	nodes map[string]*dnode
	start *dnode
}

func (p *program) key(set []bool) string {
	var b strings.Builder
	for s, in := range set {
		if in {
			b.WriteString(strconv.Itoa(s))
			b.WriteByte(',')
		}
	}
	return b.String()
}

func newLazyDFA(p *program) *lazyDFA {
	d := &lazyDFA{prog: p, nodes: make(map[string]*dnode)}
	init := make([]bool, len(p.edges))
	init[p.start] = true
	p.closure(init, true) // position 0 is a boundary
	d.start = d.intern(init)
	return d
}

func (d *lazyDFA) intern(set []bool) *dnode {
	k := d.prog.key(set)
	if n, ok := d.nodes[k]; ok {
		return n
	}
	final := append([]bool(nil), set...)
	d.prog.closure(final, true)
	n := &dnode{set: set, trans: make(map[byte]*dnode), accept: final[d.prog.accept]}
	d.nodes[k] = n
	return n
}

// step returns the DFA state after consuming c mid-token, or nil when the
// token is rejected.
func (d *lazyDFA) step(n *dnode, c byte) *dnode {
	if next, ok := n.trans[c]; ok {
		return next
	}
	set := make([]bool, len(d.prog.edges))
	any := false
	for s, in := range n.set {
		if !in {
			continue
		}
		for _, e := range d.prog.edges[s] {
			if e.kind == edgeChar && e.set.Has(c) {
				set[e.to] = true
				any = true
			}
		}
	}
	var next *dnode
	if any {
		d.prog.closure(set, false)
		next = d.intern(set)
	}
	n.trans[c] = next
	return next
}

func (re *Regexp) dfa() *lazyDFA {
	if re.lazy == nil {
		re.lazy = newLazyDFA(re.prog)
	}
	return re.lazy
}

// languageDFA enumerates the accepted universe values using the lazy DFA.
// It walks the digit trie of valid decimal spellings (no leading zeros)
// so shared prefixes are expanded once. The walk visits values in trie
// order, not numeric order, so accepted values are marked in a
// Universe-bit set (8 KiB) and read back in increasing order.
func (re *Regexp) languageDFA() []uint32 {
	d := re.dfa()
	var set valueSet
	if s := d.step(d.start, '0'); s != nil && s.accept {
		set.add(0)
	}
	for c := byte('1'); c <= '9'; c++ {
		if s := d.step(d.start, c); s != nil {
			d.walk(s, uint32(c-'0'), &set)
		}
	}
	return set.values()
}

// walk marks every accepted value whose decimal spelling extends the
// prefix that led to s (spelling val).
func (d *lazyDFA) walk(s *dnode, val uint32, set *valueSet) {
	if s.accept {
		set.add(val)
	}
	for c := byte('0'); c <= '9'; c++ {
		v := val*10 + uint32(c-'0')
		if v >= Universe {
			break
		}
		if next := d.step(s, c); next != nil {
			d.walk(next, v, set)
		}
	}
}

// valueSet is a set of universe values, one bit each. n counts members
// and lo/hi bound the words that hold any, so reading back a small
// language scans only its own range.
type valueSet struct {
	bits   [Universe / 64]uint64
	n      int
	lo, hi int
}

func (vs *valueSet) add(v uint32) {
	w := int(v / 64)
	if vs.n == 0 || w < vs.lo {
		vs.lo = w
	}
	if vs.n == 0 || w > vs.hi {
		vs.hi = w
	}
	vs.bits[w] |= 1 << (v % 64)
	vs.n++
}

// values returns the members in increasing order (nil when empty).
func (vs *valueSet) values() []uint32 {
	if vs.n == 0 {
		return nil
	}
	out := make([]uint32, 0, vs.n)
	for w := vs.lo; w <= vs.hi; w++ {
		for word := vs.bits[w]; word != 0; word &= word - 1 {
			out = append(out, uint32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}
