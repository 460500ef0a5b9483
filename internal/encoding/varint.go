package encoding

import (
	"fmt"
	"io"
)

// Variable-length integer decoding (§3.8: "a variable-length binary
// encoding of integers, which represents small numbers in one byte,
// larger numbers in two bytes, etc."): unsigned LEB128.

// reader consumes varints from a byte slice with error tracking.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// failTruncated records a partial-read failure: the input stopped short
// of a complete structure. Unlike structural corruption (bad tags,
// mismatched counts), truncation is what a torn write at the end of a
// file produces, so these errors wrap io.ErrUnexpectedEOF — callers
// like the store's WAL reopen path check errors.Is(err,
// io.ErrUnexpectedEOF) to decide that truncating the tail is safe.
func (r *reader) failTruncated(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("encoding: truncated %s at offset %d: %w", what, r.off, io.ErrUnexpectedEOF)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if r.off >= len(r.buf) {
			r.failTruncated("varint")
			return 0
		}
		b := r.buf[r.off]
		r.off++
		if shift >= 64 {
			r.fail("encoding: varint overflow at offset %d", r.off)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.failTruncated(fmt.Sprintf("byte run (%d wanted, %d left)", n, len(r.buf)-r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) remaining() int { return len(r.buf) - r.off }
