package ipanon

import (
	"testing"

	"confanon/internal/token"
)

// TestCryptoPAnKnownAnswers pins NewCryptoPAn to the reference vectors
// published with Xu et al.'s Crypto-PAn implementation (the sample key
// and the first addresses of its sample trace), so a rewrite of MapV4's
// cipher buffers cannot silently change the mapping.
func TestCryptoPAnKnownAnswers(t *testing.T) {
	key := [32]byte{
		21, 34, 23, 141, 51, 164, 207, 128, 19, 10, 91, 22, 73, 144, 125, 16,
		216, 152, 143, 131, 121, 121, 101, 39, 98, 87, 76, 45, 42, 132, 34, 2,
	}
	c, err := NewCryptoPAn(key)
	if err != nil {
		t.Fatal(err)
	}
	vectors := []struct{ in, want string }{
		{"128.11.68.132", "135.242.180.132"},
		{"129.118.74.4", "134.136.186.123"},
		{"130.132.252.244", "133.68.164.234"},
		{"141.223.7.43", "141.167.8.160"},
		{"141.233.145.108", "141.129.237.235"},
		{"156.29.3.236", "147.225.12.42"},
		{"192.102.249.13", "252.138.62.131"},
	}
	for _, v := range vectors {
		in, ok := token.ParseIPv4(v.in)
		if !ok {
			t.Fatalf("bad vector input %q", v.in)
		}
		if got := token.FormatIPv4(c.MapV4(in)); got != v.want {
			t.Errorf("MapV4(%s) = %s, want %s", v.in, got, v.want)
		}
	}
}

// TestCryptoPAnMapV4AllocatesOnce bounds MapV4 at one heap allocation
// per call: the cipher's input and output blocks share one buffer.
func TestCryptoPAnMapV4AllocatesOnce(t *testing.T) {
	var key [32]byte
	c, err := NewCryptoPAn(key)
	if err != nil {
		t.Fatal(err)
	}
	ip := uint32(0x0C010101)
	if n := testing.AllocsPerRun(100, func() { ip = c.MapV4(ip) + 1 }); n > 1 {
		t.Errorf("MapV4: %.0f allocations per call, want <= 1", n)
	}
}
