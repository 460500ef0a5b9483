// Package utf8x counts and finds the characters of UTF-8 text eight bytes
// at a time: what a structure that holds text as UTF-8 and counts it in
// characters — the rope's leaves, the log's arena — needs of it, and
// unicode/utf8 does a byte at a time.
package utf8x

import (
	"encoding/binary"
	"math/bits"
)

// starts has the top bit set of each byte of w, eight bytes of UTF-8,
// that starts a character: each but the continuation bytes, 10xxxxxx.
func starts(w uint64) uint64 { return ^(w &^ (w << 1)) & 0x8080808080808080 }

// Count returns the number of characters in text, valid UTF-8.
func Count(text []byte) int {
	n, i := 0, 0
	for ; len(text)-i >= 8; i += 8 {
		n += bits.OnesCount64(starts(binary.LittleEndian.Uint64(text[i:])))
	}
	for ; i < len(text); i++ {
		if text[i]&0xC0 != 0x80 {
			n++
		}
	}
	return n
}

// Back returns where the last n characters of text, valid UTF-8, start:
// Skip from the end, a byte at a time for the few characters of a
// backspace.
func Back(text []byte, n int) int {
	i := len(text)
	if n <= 4 {
		for ; n > 0; n-- {
			for i--; text[i]&0xC0 == 0x80; i-- {
			}
		}
		return i
	}
	for ; i >= 8; i -= 8 {
		s := starts(binary.LittleEndian.Uint64(text[i-8:]))
		if k := bits.OnesCount64(s); k < n {
			n -= k
			continue
		}
		for ; n > 1; n-- {
			s &^= 1 << (63 - bits.LeadingZeros64(s))
		}
		return i - 8 + (63-bits.LeadingZeros64(s))/8
	}
	for i > 0 {
		if i--; text[i]&0xC0 != 0x80 {
			if n--; n == 0 {
				break
			}
		}
	}
	return i
}

// Skip returns where character n of text, valid UTF-8, starts: len(text)
// when text holds n characters.
func Skip(text []byte, n int) int {
	i := 0
	for ; len(text)-i >= 8; i += 8 {
		s := starts(binary.LittleEndian.Uint64(text[i:]))
		if k := bits.OnesCount64(s); k <= n {
			n -= k
			continue
		}
		for ; n > 0; n-- {
			s &= s - 1
		}
		return i + bits.TrailingZeros64(s)/8
	}
	for ; i < len(text); i++ {
		if text[i]&0xC0 != 0x80 {
			if n == 0 {
				return i
			}
			n--
		}
	}
	return len(text)
}
