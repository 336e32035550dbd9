package anonymizer

import (
	"strings"
	"time"
	"unicode"

	"confanon/internal/token"
	"confanon/internal/trace"
)

// The engine owns line iteration, token segmentation, and per-rule
// instrumentation. One file flows through runFile; each line flows
// through runLine, which times the line and attributes the elapsed wall
// time to the rules that fired on it (proportionally to their hits on
// the line, so the per-rule times in Stats sum to the total rewriting
// time). The line itself passes through three phases:
//
//  1. structural rules — banner bodies and JunOS comment state, which
//     span lines and run before (or instead of) tokenized dispatch;
//  2. the keyed line-rule dispatch table (rule.go), in registry order;
//  3. the generic word pass (rules_generic.go), where the token-scoped
//     rules (segmentation, IP pairs, bare communities) fire.

// fileState carries cross-line context through one file.
type fileState struct {
	inBanner       bool
	bannerDelim    byte
	inBlockComment bool   // inside a JunOS /* ... */ block
	block          string // current top-level block: "interface", "router bgp", ...
}

// runFile drives every line of one file through the pipeline, handing
// kept output lines to emit. next returns the file's lines in order
// (without terminators) and reports false when the file is exhausted.
func (a *Anonymizer) runFile(next func() (string, bool), emit func(string)) {
	a.stats.Files++
	a.curLine = 0
	start := time.Now()
	st := &fileState{}
	for {
		line, ok := next()
		if !ok {
			a.curLine = 0
			a.observeStage(stageRewrite, time.Since(start))
			a.flush()
			return
		}
		res, keep := a.runLine(line, st)
		if keep {
			emit(res)
		}
	}
}

// runLine processes one line under the per-rule timer.
func (a *Anonymizer) runLine(line string, st *fileState) (string, bool) {
	a.stats.Lines++
	a.curLine++
	a.curRule = ""
	if faultHook != nil {
		faultHook(a.curFile, a.curLine)
	}
	start := time.Now()
	res, keep := a.processLine(line, st)
	a.attribute(time.Since(start))
	if !keep && a.tracer != nil {
		// A dropped line is one decision: the comment/banner rule that
		// removed it, with no replacement to record.
		a.decide(trace.ClassDropped, "")
	}
	return res, keep
}

// attribute splits an elapsed duration across the rules recorded in the
// lineHits scratch (one share per hit) and clears the scratch.
func (a *Anonymizer) attribute(d time.Duration) {
	n := len(a.lineHits)
	if n == 0 {
		return
	}
	share := int64(d) / int64(n)
	for _, i := range a.lineHits {
		a.stats.ruleTimeNs[i] += share
	}
	a.lineHits = a.lineHits[:0]
}

// processLine is the per-line pipeline: structural rules, keyed dispatch,
// then the generic word pass.
func (a *Anonymizer) processLine(line string, st *fileState) (string, bool) {
	// C1: banner bodies are comments; strip every content line.
	if st.inBanner {
		if strings.IndexByte(line, st.bannerDelim) >= 0 {
			st.inBanner = false
			return string(st.bannerDelim), true
		}
		// Banner bodies bypass Fields, so they count words like
		// strings.Fields does.
		n := int64(fieldCount(line))
		a.hit(RuleBanner)
		a.stats.CommentLinesRemoved++
		a.stats.CommentWordsRemoved += n
		a.stats.WordsTotal += n
		if a.stripComments() {
			return "", false
		}
		return line, true
	}

	a.words, a.gaps = token.AppendFields(a.words[:0], a.gaps[:0], line)
	words, gaps := a.words, a.gaps
	a.stats.WordsTotal += int64(len(words))

	// JunOS comment syntax ("# ...", "/* ... */") is stripped like IOS
	// comments; block comments span lines.
	if res, keep, handled := a.junosCommentRules(line, words, st); handled || st.inBlockComment {
		return res, keep
	}
	if len(words) == 0 {
		return line, true
	}

	// Track the current block for context-dependent rules.
	indented := gaps[0] != ""
	if !indented {
		st.block = blockOf(words)
	}

	c := &a.ctx
	c.raw, c.words, c.gaps, c.st = line, words, gaps, st
	if a.lineShield != nil {
		clear(a.lineShield) // pack-rule outputs shield one line only
	}
	if out, keep, consumed := a.dispatchLine(c); consumed {
		return out, keep
	}

	// Generic word-level pass (IP addresses, prefixes, communities,
	// pass-list hashing) over whatever no line rule consumed.
	a.genericWords(words, st)
	a.lineBuf = token.AppendJoin(a.lineBuf[:0], words, gaps)
	if string(a.lineBuf) == line {
		return line, true // nothing changed: no copy of the line
	}
	return string(a.lineBuf), true
}

// fieldCount is len(strings.Fields(s)) without building the slice.
func fieldCount(s string) int {
	n, inField := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inField {
			n++
		}
		inField = !space
	}
	return n
}

func blockOf(words []string) string {
	if len(words) >= 2 && words[0] == "router" {
		return "router " + words[1]
	}
	if len(words) >= 1 {
		return words[0]
	}
	return ""
}
