package netsync

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"egwalker"
)

// frontierBytes encodes v as the retired hellos carried it: a head count,
// then each head's length-prefixed agent and seq. Nothing writes it any
// more; the tests build refused frames from it.
func frontierBytes(v egwalker.Version) []byte {
	b := binary.AppendUvarint(nil, uint64(len(v)))
	for _, id := range v {
		b = binary.AppendUvarint(b, uint64(len(id.Agent)))
		b = append(b, id.Agent...)
		b = binary.AppendUvarint(b, uint64(id.Seq))
	}
	return b
}

// rawFrame is one frame's bytes: length header, type, payload.
func rawFrame(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// v2Frame is a v2 doc hello with the given flags, doc ID and tail.
func v2Frame(flags uint64, docID string, tail []byte) []byte {
	payload := binary.AppendUvarint(nil, flags)
	payload = binary.AppendUvarint(payload, uint64(len(docID)))
	payload = append(payload, docID...)
	return rawFrame(msgDocHello2, append(payload, tail...))
}

// v1Frame is the retired v1 doc hello, with a trailing frontier when v is
// non-nil.
func v1Frame(docID string, v egwalker.Version) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(docID)))
	payload = append(payload, docID...)
	if v != nil {
		payload = append(payload, frontierBytes(v)...)
	}
	return rawFrame(msgDocHello, payload)
}

// refusedHello is a hello frame of a deleted generation and the words
// ReadHello's refusal must contain.
type refusedHello struct {
	name, want string
	frame      []byte
}

func refusedHellos() []refusedHello {
	v := egwalker.Version{{Agent: "alice", Seq: 41}, {Agent: "bob", Seq: 3}}
	return []refusedHello{
		{"v1", "v1 doc hello", v1Frame("d", nil)},
		{"v1 with version", "v1 doc hello", v1Frame("d", v)},
		{"v2 resume with version", "frontier-resume", v2Frame(capCompact|helloResume, "d", frontierBytes(v))},
		{"v2 without compact", "without the compact bit", v2Frame(0, "d", nil)},
	}
}

// TestReadHelloBothGenerations: ReadHello parses the v2 compact hello
// into the same struct writeHello wrote, for every capability
// combination, and refuses the v1 generation — alone or carrying a
// resume version — with an error naming it.
func TestReadHelloBothGenerations(t *testing.T) {
	sum := egwalker.VersionSummary{"alice": {{Start: 0, End: 8}}}
	cases := []Hello{
		{DocID: "cold", Compact: true},
		{DocID: "resume", Compact: true, Summary: sum},
		{DocID: "empty-resume", Compact: true, Summary: egwalker.VersionSummary{}},
		{DocID: "redir", Compact: true, Redirect: true},
		{DocID: "replica", Compact: true, Replica: true, Summary: sum},
		{DocID: "all", Compact: true, Redirect: true, Replica: true, Summary: sum},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeHello(&buf, want); err != nil {
			t.Fatalf("writeHello(%+v): %v", want, err)
		}
		got, err := ReadHello(&buf)
		if err != nil {
			t.Fatalf("ReadHello(%+v): %v", want, err)
		}
		if got.DocID != want.DocID || !got.Compact || got.Redirect != want.Redirect ||
			got.Replica != want.Replica || (got.Summary == nil) != (want.Summary == nil) ||
			len(got.Summary) != len(want.Summary) {
			t.Fatalf("round-trip: got %+v, want %+v", got, want)
		}
	}
	for _, r := range refusedHellos()[:2] {
		_, err := ReadHello(bytes.NewReader(r.frame))
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Fatalf("%s: err = %v, want one naming %q", r.name, err, r.want)
		}
	}
}

// TestWriteHelloRequiresCompact: writeHello writes only what ReadHello
// accepts, so a hello without the compact bit never reaches the wire.
func TestWriteHelloRequiresCompact(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, Hello{DocID: "d"}); err == nil {
		t.Fatal("writeHello wrote a hello without the compact bit")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused hello left %d bytes on the wire", buf.Len())
	}
}

// TestReadHelloForwardVerbatim: a parsed hello re-emitted by Forward is
// byte-identical to the frame that arrived — the proxy path must not
// re-encode (drift there would change what the owning node is asked).
func TestReadHelloForwardVerbatim(t *testing.T) {
	for _, h := range []Hello{
		{DocID: "resume", Compact: true, Summary: egwalker.VersionSummary{"a": {{Start: 0, End: 2}}}},
		{DocID: "v2", Compact: true, Redirect: true},
	} {
		var orig bytes.Buffer
		if err := writeHello(&orig, h); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), orig.Bytes()...)
		parsed, err := ReadHello(&orig)
		if err != nil {
			t.Fatal(err)
		}
		var fwd bytes.Buffer
		if err := parsed.Forward(&fwd); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fwd.Bytes(), raw) {
			t.Fatalf("Forward re-encoded the hello:\n got %x\nwant %x", fwd.Bytes(), raw)
		}
	}
}

// TestReadHelloTruncated: a hello cut off at any byte must error (short
// header, short payload, payload cut mid-doc-ID or mid-summary), never
// panic or succeed.
func TestReadHelloTruncated(t *testing.T) {
	var full bytes.Buffer
	h := Hello{
		DocID:   "notes/alpha",
		Compact: true,
		Summary: egwalker.VersionSummary{"alice": {{Start: 0, End: 42}}, "bob": {{Start: 0, End: 4}}},
	}
	if err := writeHello(&full, h); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadHello(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("hello truncated to %d/%d bytes accepted", cut, len(raw))
		}
	}
	// A frame whose header promises more payload than follows fails on
	// the short read, not with a partial parse.
	hdr := append([]byte(nil), raw[:5]...)
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(raw)))
	if _, err := ReadHello(bytes.NewReader(append(hdr, raw[5:]...))); err == nil {
		t.Fatal("hello with inflated length header accepted")
	}
}

// TestReadHelloOversized: a hostile length header past the frame cap is
// refused before any payload allocation, and an in-bounds frame whose
// doc-ID length field is hostile is refused by the doc-ID cap.
func TestReadHelloOversized(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], egwalker.MaxBatchBytes+1)
	hdr[4] = msgDocHello2
	_, err := ReadHello(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("over-cap hello frame: err = %v, want oversized-frame error", err)
	}
	for _, idLen := range []uint64{0, maxDocID + 1, 1 << 40} {
		payload := binary.AppendUvarint(nil, capCompact) // flags
		payload = binary.AppendUvarint(payload, idLen)
		payload = append(payload, make([]byte, 64)...)
		_, err := ReadHello(bytes.NewReader(rawFrame(msgDocHello2, payload)))
		if err == nil || !strings.Contains(err.Error(), "bad doc ID length") {
			t.Fatalf("doc ID length %d: err = %v, want bad-doc-ID-length error", idLen, err)
		}
	}
}

// TestReadHelloUnknownVersion: frames that are not a doc hello, and v2
// hellos carrying flag bits this build does not know, must be rejected
// — unknown flags may change the meaning of the rest of the payload,
// so ignoring them is not an option.
func TestReadHelloUnknownVersion(t *testing.T) {
	for _, typ := range []byte{msgEvents, msgDone, msgHello, msgRedirect, msgSummary, 0x00, 0x7f} {
		_, err := ReadHello(bytes.NewReader(rawFrame(typ, []byte("x"))))
		if err == nil || !strings.Contains(err.Error(), "expected doc hello") {
			t.Fatalf("frame type %#x: err = %v, want expected-doc-hello error", typ, err)
		}
	}
	// One bit past every known flag, beside the compact bit.
	_, err := ReadHello(bytes.NewReader(v2Frame(capCompact|helloSummary<<1, "doc", nil)))
	if err == nil || !strings.Contains(err.Error(), "unknown doc hello flags") {
		t.Fatalf("unknown flag bits: err = %v, want unknown-flags error", err)
	}
}

// TestReadHelloGarbageResumeVersion: a resume version in either retired
// generation is refused by name before a byte of it is decoded —
// hostile head counts included — and a summary resume whose summary
// does not decode fails the hello without a proportional allocation.
func TestReadHelloGarbageResumeVersion(t *testing.T) {
	hostile := binary.AppendUvarint(nil, 1<<50) // head or agent count
	hostile = append(hostile, make([]byte, 1024)...)
	cases := []struct {
		frame []byte
		want  string
	}{
		{rawFrame(msgDocHello, append(binary.AppendUvarint(nil, 3), append([]byte("doc"), hostile...)...)), "v1 doc hello"},
		{v2Frame(capCompact|helloResume, "doc", hostile), "frontier-resume"},
		{v2Frame(capCompact|helloSummary, "doc", hostile), "bad version summary"},
	}
	for _, tc := range cases {
		_, err := ReadHello(bytes.NewReader(tc.frame))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("err = %v, want one naming %q", err, tc.want)
		}
	}
}
