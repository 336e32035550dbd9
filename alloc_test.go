package confanon

import (
	"io"
	"sort"
	"strings"
	"testing"
)

// maxWarmStreamAllocsPerLine bounds the heap allocations of the warm
// per-line hot path: tokenize, rule dispatch, SHA-1, Crypto-PAn and the
// ASN permutation, on a Program whose memos are already filled. The
// engine reuses its per-worker scratch (words, gaps, the generic pass's
// lead/core/trail slices), so what remains is the replacement strings
// themselves and per-file set-up, spread over the file's lines.
const maxWarmStreamAllocsPerLine = 4

// TestWarmStreamAllocsPerLine streams the golden corpus through a fresh
// Session of a warm StatelessIP Program and bounds allocations per input
// line, so a change that reintroduces per-line slice growth fails here
// rather than only in a profile.
func TestWarmStreamAllocsPerLine(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	in := readGoldenDir(t, "testdata/golden/in")
	names := make([]string, 0, len(in))
	lines := 0
	for name, text := range in {
		names = append(names, name)
		lines += strings.Count(text, "\n")
	}
	sort.Strings(names)
	prog := Compile(Options{Salt: []byte(goldenSalt), StatelessIP: true})
	run := func() {
		a := prog.NewSession()
		for _, name := range names {
			if err := a.Stream(strings.NewReader(in[name]), io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // fill the Program's memos
	perLine := testing.AllocsPerRun(10, run) / float64(lines)
	t.Logf("%.2f allocs/line over %d lines", perLine, lines)
	if perLine > maxWarmStreamAllocsPerLine {
		t.Errorf("warm stream: %.2f allocs/line, want <= %d", perLine, maxWarmStreamAllocsPerLine)
	}
}
