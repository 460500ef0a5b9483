package encoding

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// Truncated input must surface io.ErrUnexpectedEOF (so WAL/file reopen
// paths can treat it as a torn tail and truncate), while structural
// corruption must not masquerade as truncation.
func TestDecodeTruncationVsCorruption(t *testing.T) {
	whole := fixture(t, "cached.egw")
	for cut := 5; cut < len(whole); cut++ {
		_, err := Decode(whole[:cut])
		if err == nil {
			// A prefix that happens to parse (e.g. cut exactly after a
			// self-consistent column set) is impossible here because the
			// trailing doc column is length-prefixed; be strict.
			t.Fatalf("cut %d: truncated file decoded successfully", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
	}

	// Structural corruption: a bad op tag inside an intact file must not
	// read as truncation. The ops column starts right after the 5-byte
	// head, the event-count varint and its own length varint; its first
	// byte is the run tag (0 = insert). 0x7f is not a valid tag.
	_, k := binary.Uvarint(whole[5:])
	_, c := binary.Uvarint(whole[5+k:])
	at := 5 + k + c
	if whole[at] != 0 {
		t.Fatalf("test layout assumption broken: ops tag byte is %#x, want 0", whole[at])
	}
	mut := append([]byte(nil), whole...)
	mut[at] = 0x7f
	_, err := Decode(mut)
	if err == nil {
		t.Fatal("corrupt op tag accepted")
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("structural corruption reported as truncation: %v", err)
	}
}
