package utf8x

import (
	"math/rand"
	"testing"
	"unicode/utf8"
)

// TestSkip holds Skip, Back and Count to a decode of text a character at a
// time, at every position of texts of every mix of character lengths.
func TestSkip(t *testing.T) {
	alphabet := []rune("ab éü日本𝄞😀")
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		rs := make([]rune, rng.Intn(70))
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		text := []byte(string(rs))
		if got := Count(text); got != len(rs) {
			t.Fatalf("%q: %d characters, Count says %d", text, len(rs), got)
		}
		at := 0
		for n := 0; n <= len(rs); n++ {
			if got := Skip(text, n); got != at {
				t.Fatalf("%q: character %d starts at %d, Skip says %d", text, n, at, got)
			}
			if got := Back(text, len(rs)-n); got != at {
				t.Fatalf("%q: the last %d characters start at %d, Back says %d", text, len(rs)-n, at, got)
			}
			if n < len(rs) {
				_, w := utf8.DecodeRune(text[at:])
				at += w
			}
		}
	}
}
