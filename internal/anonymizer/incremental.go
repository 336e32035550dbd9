package anonymizer

import (
	"hash/fnv"
	"strconv"
	"strings"
	"time"
)

// Incremental re-anonymization support: the engine can record, per input
// line, everything a later run needs to resume a file mid-way — the
// output the line contributed, whether it was dropped, and the
// cross-line state (banner, block comment, block context) after it.
// A later run whose file shares a prefix of identical lines replays the
// cached outputs for the prefix and re-enters the engine at the first
// divergent line with the checkpointed state, producing output
// byte-identical to reprocessing the whole file (the prefix's state
// depends only on the prefix's lines, which are unchanged; the mapping
// of any address in the prefix is already resolved in the shared tree).

// ResumeState is the serializable image of the engine's cross-line
// fileState: the checkpoint a line cache stores after every line.
type ResumeState struct {
	InBanner       bool   `json:"b,omitempty"`
	BannerDelim    byte   `json:"bd,omitempty"`
	InBlockComment bool   `json:"bc,omitempty"`
	Block          string `json:"blk,omitempty"`
}

func exportState(st *fileState) ResumeState {
	return ResumeState{
		InBanner:       st.inBanner,
		BannerDelim:    st.bannerDelim,
		InBlockComment: st.inBlockComment,
		Block:          st.block,
	}
}

func importState(rs ResumeState) *fileState {
	return &fileState{
		inBanner:       rs.InBanner,
		bannerDelim:    rs.BannerDelim,
		inBlockComment: rs.InBlockComment,
		block:          rs.Block,
	}
}

// LineRecord is one line's entry in the incremental cache: the input
// line's content hash, the output it contributed (absent for a dropped
// line), and the resume checkpoint after it.
type LineRecord struct {
	Hash string
	Out  string
	Drop bool
	Next ResumeState
}

// LineHash returns the content hash the incremental differ compares
// lines by (FNV-64a; a cache hit on a colliding line would reuse a stale
// output, at odds of ~2^-64 per line against non-adversarial edits).
func LineHash(line string) string {
	h := fnv.New64a()
	h.Write([]byte(line))
	return strconv.FormatUint(h.Sum64(), 16)
}

// SplitLines splits file text exactly the way the engine iterates it:
// on newlines, with the empty artifact after a trailing newline dropped.
func SplitLines(text string) []string {
	lines := strings.Split(text, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return lines
}

// JoinOutputs assembles kept output lines into file text (the inverse of
// the engine's emit sequence, shared by the full and resumed paths).
func JoinOutputs(outs []string) string {
	return strings.Join(outs, "\n") + "\n"
}

// runLinesRecorded drives lines through the per-line pipeline starting
// at line number startLine (the count of lines already handled) with the
// given cross-line state, recording each line's outcome. It carries
// runFile's per-file bookkeeping: the file counter, stage timing, and
// the boundary flush.
func (a *Anonymizer) runLinesRecorded(lines []string, startLine int, st *fileState) (outs []string, recs []LineRecord) {
	a.stats.Files++
	a.curLine = startLine
	start := time.Now()
	outs = make([]string, 0, len(lines))
	recs = make([]LineRecord, 0, len(lines))
	for _, line := range lines {
		res, keep := a.runLine(line, st)
		rec := LineRecord{Hash: LineHash(line), Drop: !keep, Next: exportState(st)}
		if keep {
			rec.Out = res
			outs = append(outs, res)
		}
		recs = append(recs, rec)
	}
	a.curLine = 0
	a.observeStage(stageRewrite, time.Since(start))
	a.flush()
	return outs, recs
}

// SafeAnonymizeRecorded anonymizes one whole file like SafeAnonymizeText
// — same prescan, fault recovery, tracing, and ledger commit — and
// additionally returns the per-line records an incremental re-run diffs
// against. The output equals SafeAnonymizeText's on the same text.
func (a *Anonymizer) SafeAnonymizeRecorded(name, text string) (out string, recs []LineRecord, ferr *FileError) {
	defer a.recoverFile(&ferr)
	a.beginFile(name, "rewrite")
	a.Prescan(text)
	var outs []string
	outs, recs = a.runLinesRecorded(SplitLines(text), 0, &fileState{})
	out = JoinOutputs(outs)
	a.endFileSpan()
	a.sess.commitLedger()
	return out, recs, nil
}

// SafeAnonymizeTail resumes a file at the first divergent line: tail is
// the un-reused suffix of the file's lines, startLine the count of reused
// prefix lines (so fault line numbers stay file-absolute), and rs the
// checkpoint recorded after the last reused line. No prescan runs — the
// caller's census/replay (shaped tree) or the salt-pure mapping
// (stateless) has already resolved every address the tail can reference.
// The returned outs are only the tail's contributions; the caller
// prepends the cached prefix outputs.
func (a *Anonymizer) SafeAnonymizeTail(name string, tail []string, startLine int, rs ResumeState) (outs []string, recs []LineRecord, ferr *FileError) {
	defer a.recoverFile(&ferr)
	a.beginFile(name, "rewrite-tail")
	a.curLine = startLine
	outs, recs = a.runLinesRecorded(tail, startLine, importState(rs))
	a.endFileSpan()
	a.sess.commitLedger()
	return outs, recs, nil
}
