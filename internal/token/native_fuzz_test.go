package token

import (
	"slices"
	"testing"
)

// FuzzFields pins the tokenizer's two contracts for any input line: the
// append form, handed scratch slices still holding a longer previous
// line's words and gaps, tokenizes exactly like Fields; and Join (and
// AppendJoin into a dirty buffer) reassembles the line byte for byte.
// The engine reuses its scratch line after line, so a stale element
// leaking into a result would corrupt output silently.
func FuzzFields(f *testing.F) {
	f.Add("")
	f.Add(" ")
	f.Add("interface Ethernet0/0")
	f.Add(" ip address 12.1.1.1 255.255.255.0")
	f.Add("\t neighbor 12.1.1.1 remote-as 7018  ")
	f.Add("a\t\tb \t c\r\n")
	f.Add("    address 12.0.0.1/30;")
	f.Fuzz(func(t *testing.T, line string) {
		words, gaps := Fields(line)
		prevWords, prevGaps := Fields(line + " stale scratch \t words")
		prevBuf := []byte(line + " stale buffer")
		w2, g2 := AppendFields(prevWords[:0], prevGaps[:0], line)
		if !slices.Equal(words, w2) || !slices.Equal(gaps, g2) {
			t.Fatalf("AppendFields on dirty scratch = %q / %q, Fields = %q / %q", w2, g2, words, gaps)
		}
		if len(gaps) != len(words)+1 {
			t.Fatalf("%d gaps for %d words", len(gaps), len(words))
		}
		if got := Join(words, gaps); got != line {
			t.Fatalf("Join = %q, want %q", got, line)
		}
		if got := AppendJoin(prevBuf[:0], w2, g2); string(got) != line {
			t.Fatalf("AppendJoin = %q, want %q", got, line)
		}
	})
}
