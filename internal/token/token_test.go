package token

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitWord(t *testing.T) {
	cases := []struct {
		in   string
		want []Segment
	}{
		{"Ethernet0/0", []Segment{{"Ethernet", Word}, {"0", Integer}, {"/", Punct}, {"0", Integer}}},
		{"Serial1/0.5", []Segment{{"Serial", Word}, {"1", Integer}, {"/", Punct}, {"0", Integer}, {".", Punct}, {"5", Integer}}},
		{"UUNET-import", []Segment{{"UUNET", Word}, {"-", Punct}, {"import", Word}}},
		{"cr1.sfo-serial3/0.8", []Segment{
			{"cr", Word}, {"1", Integer}, {".", Punct}, {"sfo", Word}, {"-", Punct},
			{"serial", Word}, {"3", Integer}, {"/", Punct}, {"0", Integer}, {".", Punct}, {"8", Integer}}},
		{"701", []Segment{{"701", Integer}}},
		{"", nil},
		{"!!", []Segment{{"!!", Punct}}},
	}
	for _, c := range cases {
		got := AppendSegments(nil, c.in)
		if len(got) != len(c.want) {
			t.Fatalf("AppendSegments(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("AppendSegments(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestSplitWordReassembles(t *testing.T) {
	// Property: concatenating the segments always reproduces the word.
	f := func(w string) bool {
		var b strings.Builder
		for _, s := range AppendSegments(nil, w) {
			b.WriteString(s.Text)
		}
		return b.String() == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldsJoinRoundTrip(t *testing.T) {
	lines := []string{
		" ip address 1.1.1.1 255.255.255.0",
		"router bgp 1111",
		"",
		"   ",
		"\tneighbor 2.2.2.2 remote-as 701 ",
		"a  b\t\tc",
	}
	for _, line := range lines {
		words, gaps := Fields(line)
		if got := Join(words, gaps); got != line {
			t.Errorf("Join(Fields(%q)) = %q", line, got)
		}
	}
}

func TestFieldsJoinProperty(t *testing.T) {
	f := func(parts []string) bool {
		line := strings.Join(parts, " ")
		line = strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, line)
		words, gaps := Fields(line)
		return Join(words, gaps) == line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
		ok   bool
	}{
		{"1.1.1.1", 0x01010101, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"0.0.0.0", 0, true},
		{"10.1.2.0", 0x0A010200, true},
		{"192.168.1.254", 0xC0A801FE, true},
		{"256.1.1.1", 0, false},
		{"1.1.1", 0, false},
		{"1.1.1.1.1", 0, false},
		{"1..1.1", 0, false},
		{"01.1.1.1", 0, false},
		{"1.1.1.1a", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseIPv4(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseIPv4(%q) = %#x,%v want %#x,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		got, ok := ParseIPv4(FormatIPv4(v))
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIPv4Prefix(t *testing.T) {
	addr, length, ok := ParseIPv4Prefix("10.0.0.0/8")
	if !ok || addr != 0x0A000000 || length != 8 {
		t.Errorf("ParseIPv4Prefix(10.0.0.0/8) = %#x,%d,%v", addr, length, ok)
	}
	if _, _, ok := ParseIPv4Prefix("10.0.0.0/33"); ok {
		t.Error("accepted /33")
	}
	if _, _, ok := ParseIPv4Prefix("10.0.0.0"); ok {
		t.Error("accepted missing slash")
	}
	if _, _, ok := ParseIPv4Prefix("10.0.0.0/"); ok {
		t.Error("accepted empty length")
	}
	if _, _, ok := ParseIPv4Prefix("10.0.0.0/ab"); ok {
		t.Error("accepted non-numeric length")
	}
	if _, length, ok := ParseIPv4Prefix("1.2.3.4/0"); !ok || length != 0 {
		t.Error("rejected /0")
	}
	if _, length, ok := ParseIPv4Prefix("1.2.3.4/32"); !ok || length != 32 {
		t.Error("rejected /32")
	}
}

func TestParseCommunity(t *testing.T) {
	asn, val, ok := ParseCommunity("701:1234")
	if !ok || asn != 701 || val != 1234 {
		t.Errorf("ParseCommunity(701:1234) = %d,%d,%v", asn, val, ok)
	}
	bad := []string{"701", ":1234", "701:", "70000:1", "1:70000", "701:12:34", "a:1", "1:a", ""}
	for _, w := range bad {
		if _, _, ok := ParseCommunity(w); ok {
			t.Errorf("ParseCommunity(%q) accepted", w)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
	}{
		{"hostname", Word},
		{"701", Integer},
		{"1.1.1.1", IPv4},
		{"10.0.0.0/8", IPv4Prefix},
		{"701:7100", Community},
		{"xxx@foo.com", Email},
		{"555-867-5309", Phone},
		{"05080F1C2243", HexString},
		{"!", Punct},
		{"Ethernet0", Other},
		{"", Other},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsPhone(t *testing.T) {
	yes := []string{"555-867-5309", "+15558675309", "(555)867-5309", "1-800-555-0100"}
	no := []string{"5558675309", "555-86", "abc-def-ghij", "", "1.1.1.1"}
	for _, w := range yes {
		if !IsPhone(w) {
			t.Errorf("IsPhone(%q) = false", w)
		}
	}
	for _, w := range no {
		if IsPhone(w) {
			t.Errorf("IsPhone(%q) = true", w)
		}
	}
}

func TestIsHexString(t *testing.T) {
	if !IsHexString("05080F1C2243") {
		t.Error("rejected IOS type-7 style hex")
	}
	if IsHexString("12345678") {
		t.Error("accepted all-digit string (should classify Integer)")
	}
	if IsHexString("abcdefg1") {
		t.Error("accepted non-hex letter")
	}
	if IsHexString("ab12") {
		t.Error("accepted short string")
	}
}

func TestIsEmail(t *testing.T) {
	if !IsEmail("noc@example.net") {
		t.Error("rejected plain email")
	}
	for _, w := range []string{"@x.com", "a@", "a@b", "a@@b.c", "plain"} {
		if IsEmail(w) {
			t.Errorf("IsEmail(%q) = true", w)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := Word; k <= Other; k++ {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

func TestFormatIPv4Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := rng.Uint32()
		want := fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xFF, v>>8&0xFF, v&0xFF)
		if got := FormatIPv4(v); got != want {
			t.Fatalf("FormatIPv4(%#x) = %q, want %q", v, got, want)
		}
	}
}

func TestTrimPunct(t *testing.T) {
	cases := []struct{ in, lead, core, trail string }{
		{"12.0.0.1/30;", "", "12.0.0.1/30", ";"},
		{"701:100;", "", "701:100", ";"},
		{"[", "[", "", ""},
		{"{", "{", "", ""},
		{"\"_1239_\"", "\"", "_1239_", "\""},
		{"word", "", "word", ""},
		{"};", "};", "", ""},
		{"[701", "[", "701", ""},
		{"", "", "", ""},
	}
	for _, c := range cases {
		lead, core, trail := TrimPunct(c.in)
		if lead != c.lead || core != c.core || trail != c.trail {
			t.Errorf("TrimPunct(%q) = %q,%q,%q want %q,%q,%q",
				c.in, lead, core, trail, c.lead, c.core, c.trail)
		}
	}
}

func TestTrimPunctReassembles(t *testing.T) {
	f := func(w string) bool {
		lead, core, trail := TrimPunct(w)
		return lead+core+trail == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
