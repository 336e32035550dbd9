package anonymizer

import (
	"slices"
	"strconv"
	"strings"

	"confanon/internal/config"
	"confanon/internal/token"
	"confanon/internal/trace"
)

// The generic word pass: the engine's terminal stage, where the
// token-scoped registry rules fire — the IP rules (I1–I5), the
// bare-community rule (K1), and the basic method (segmentation S1/S2 +
// pass-list + hash) — over every word of a line not consumed by a line
// rule.

// genericWords applies the token-scoped rules to a word slice.
//
// Words are stripped of structural punctuation first (JunOS attaches
// semicolons, brackets, and quotes to values: "address 12.0.0.1/30;"),
// processed on their cores, and reassembled. The lead/core/trail slices
// are the worker's scratch; a word whose core came back unchanged is
// left as it was rather than rebuilt.
func (a *Anonymizer) genericWords(words []string, st *fileState) {
	n := len(words)
	a.leads = slices.Grow(a.leads[:0], n)[:n]
	a.cores = slices.Grow(a.cores[:0], n)[:n]
	a.trails = slices.Grow(a.trails[:0], n)[:n]
	leads, cores, trails := a.leads, a.cores, a.trails
	for i, w := range words {
		leads[i], cores[i], trails[i] = token.TrimPunct(w)
	}
	a.genericCores(cores, st)
	for i, w := range words {
		if cores[i] != w[len(leads[i]):len(w)-len(trails[i])] {
			words[i] = leads[i] + cores[i] + trails[i]
		}
	}
}

// genericCores runs the word-level rules over punctuation-stripped cores.
func (a *Anonymizer) genericCores(words []string, st *fileState) {
	for i := 0; i < len(words); i++ {
		w := words[i]
		if w == "" {
			continue
		}
		if a.lineShield != nil && a.lineShield[w] {
			// A pack line rule already produced this value on this line;
			// re-hashing it would break the pack action's output shape.
			continue
		}
		if a.sensitiveTokens[w] {
			// Operator-added rule: treat a numeric token as an ASN,
			// anything else as a hashable word.
			a.curRule = pseudoRuleOperator
			if token.IsInteger(w) {
				words[i] = a.mapASNToken(w)
			} else {
				words[i] = a.forceHash(w)
			}
			continue
		}
		if addr, ok := token.ParseIPv4(w); ok {
			// I1 variant: "network A mask M" (BGP network statements).
			if i+2 < len(words) && words[i+1] == "mask" {
				if m, mok := token.ParseIPv4(words[i+2]); mok {
					if length, isMask := config.MaskToLen(m); isMask {
						a.hit(RuleAddrNetmask)
						words[i] = a.mapWithPrefix(addr, length)
						i += 2 // "mask" keyword and the mask itself pass through
						continue
					}
				}
			}
			// Pair rules I1/I2 first: address followed by a netmask or
			// wildcard.
			if i+1 < len(words) {
				if second, ok2 := token.ParseIPv4(words[i+1]); ok2 {
					if length, isMask := config.MaskToLen(second); isMask && second != 0 {
						a.hit(RuleAddrNetmask)
						words[i] = a.mapWithPrefix(addr, length)
						i++ // mask itself passes through unchanged
						continue
					}
					if length, isWild := config.MaskToLen(^second); isWild {
						a.hit(RuleAddrWildcard)
						words[i] = a.mapWithPrefix(addr, length)
						i++ // wildcard passes through unchanged
						continue
					}
				}
			}
			// I5: classful network statements under RIP/EIGRP/IGRP.
			if st != nil && (st.block == "router rip" || st.block == "router eigrp" || st.block == "router igrp") &&
				i > 0 && words[i-1] == "network" {
				a.hit(RuleClassfulNet)
				length, _ := config.MaskToLen(config.ClassfulMask(addr))
				words[i] = a.mapWithPrefix(addr, length)
				continue
			}
			// I3: bare address.
			words[i] = a.mapAddrToken(w)
			continue
		}
		if addr, length, ok := token.ParseIPv4Prefix(w); ok {
			a.hit(RuleSlashPrefix)
			a.stats.IPsMapped++
			mapped := a.ip.MapPrefix(addr, length)
			net := addr & config.LenToMask(length)
			if mapped != net {
				a.seenIPs[net] = true
			}
			var buf [18]byte
			out := append(token.AppendIPv4(buf[:0], mapped), '/')
			words[i] = string(strconv.AppendInt(out, int64(length), 10))
			if a.tracer != nil {
				a.decide(trace.ClassIP, words[i])
			}
			continue
		}
		if _, _, ok := token.ParseCommunity(w); ok {
			a.hit(RuleBareCommunity)
			words[i] = a.mapCommunityToken(w)
			continue
		}
		// Pack token rules (MAC addresses and the like) fire between the
		// structural token classes above and the basic method below.
		if len(a.rules.token) > 0 {
			if repl, ok := a.applyTokenRules(w); ok {
				words[i] = repl
				continue
			}
		}
		if token.IsInteger(w) {
			// "Simple integers are generally not anonymized."
			continue
		}
		words[i] = a.hashIfPrivileged(w)
	}
}

// mapWithPrefix pins the subnet address first (so subnet-address
// preservation holds regardless of the order hosts appear in the file),
// then maps the full address.
func (a *Anonymizer) mapWithPrefix(addr uint32, length int) string {
	a.stats.IPsMapped++
	net := addr & config.LenToMask(length)
	mappedNet := a.ip.MapPrefix(net, length)
	if mappedNet != net {
		a.seenIPs[net] = true
	}
	if addr == net {
		res := token.FormatIPv4(mappedNet)
		if a.tracer != nil {
			a.decide(trace.ClassIP, res)
		}
		return res
	}
	out := a.ip.MapV4(addr)
	if out != addr {
		a.seenIPs[addr] = true
	}
	res := token.FormatIPv4(out)
	if a.tracer != nil {
		a.decide(trace.ClassIP, res)
	}
	return res
}

// hashIfPrivileged applies the basic method to one word: segment (S1/S2),
// consult the pass-list, and hash what is not known innocuous.
func (a *Anonymizer) hashIfPrivileged(w string) string {
	switch token.Classify(w) {
	case token.Email, token.Phone, token.HexString:
		return a.forceHash(w)
	case token.Punct:
		return w
	}
	// Whole-word pass-list hit first: hyphenated keywords such as
	// "route-map" and "access-list" are listed as units.
	if a.pass.Contains(w) {
		a.stats.TokensPassed++
		if a.tracer != nil {
			a.decideAs(pseudoRuleBasic, trace.ClassPassed, w)
		}
		return w
	}
	a.segs = token.AppendSegments(a.segs[:0], w)
	segs := a.segs
	if len(segs) > 1 {
		a.hit(RuleSegmentAlpha)
		hasWords := 0
		for _, s := range segs {
			if s.Kind == token.Word {
				hasWords++
			}
		}
		if hasWords > 1 {
			a.hit(RuleSegmentWords)
		}
	}
	changed := false
	for i, s := range segs {
		if s.Kind != token.Word {
			continue
		}
		if a.pass.Contains(s.Text) {
			a.stats.TokensPassed++
			continue
		}
		a.stats.TokensHashed++
		a.seenWords[s.Text] = true
		segs[i].Text = hashWord(a.opts.Salt, s.Text)
		changed = true
	}
	if !changed {
		if a.tracer != nil {
			a.decideAs(pseudoRuleBasic, trace.ClassPassed, w)
		}
		return w
	}
	res := joinSegments(segs)
	if a.tracer != nil {
		a.decideAs(pseudoRuleBasic, trace.ClassHashed, res)
	}
	return res
}

// joinSegments concatenates segment texts into one string, sized once.
func joinSegments(segs []token.Segment) string {
	if len(segs) == 1 {
		return segs[0].Text
	}
	n := 0
	for _, s := range segs {
		n += len(s.Text)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range segs {
		b.WriteString(s.Text)
	}
	return b.String()
}

// forceHash hashes a whole token regardless of the pass-list; used where
// position marks the value as identity-bearing (credentials, hostnames,
// fallbacks).
func (a *Anonymizer) forceHash(w string) string {
	a.stats.TokensHashed++
	a.seenWords[w] = true
	out := hashWord(a.opts.Salt, w)
	if a.tracer != nil {
		a.decide(trace.ClassHashed, out)
	}
	return out
}

// hashAllSegments hashes every alphabetic segment of a word, keeping the
// punctuation skeleton (dots of a hostname), ignoring the pass-list.
func (a *Anonymizer) hashAllSegments(w string) string {
	a.segs = token.AppendSegments(a.segs[:0], w)
	for i, s := range a.segs {
		if s.Kind == token.Word {
			a.stats.TokensHashed++
			a.seenWords[s.Text] = true
			a.segs[i].Text = hashWord(a.opts.Salt, s.Text)
		}
	}
	res := joinSegments(a.segs)
	if a.tracer != nil {
		a.decide(trace.ClassHashed, res)
	}
	return res
}
