package netsync

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"egwalker"
)

func TestDocHelloRoundTrip(t *testing.T) {
	for _, id := range []string{"a", "notes/alpha", strings.Repeat("x", maxDocID)} {
		var buf bytes.Buffer
		if err := writeHello(&buf, Hello{DocID: id, Compact: true}); err != nil {
			t.Fatalf("writeHello(%q): %v", id, err)
		}
		got, err := ReadHello(&buf)
		if err != nil || got.DocID != id || got.Summary != nil {
			t.Fatalf("ReadHello = %+v, %v; want %q, no summary", got, err, id)
		}
	}
}

// TestDocHelloResumeRoundTrip: Dial's hello carries the doc's version
// summary exactly — a reconnecting replica's whole event set, gaps
// included, and an empty summary for a fresh doc (a cold join).
func TestDocHelloResumeRoundTrip(t *testing.T) {
	doc := egwalker.NewDoc("alice")
	if err := doc.Insert(0, "history"); err != nil {
		t.Fatal(err)
	}
	other := egwalker.NewDoc("bob")
	if err := other.Insert(0, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Apply(other.Events()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*egwalker.Doc{doc, egwalker.NewDoc("fresh")} {
		var buf bytes.Buffer
		if _, err := Dial(d, &buf, "notes/alpha"); err != nil {
			t.Fatal(err)
		}
		h, err := ReadHello(&buf)
		if err != nil || h.DocID != "notes/alpha" || !h.Compact {
			t.Fatalf("Dial's hello read back as %+v, %v", h, err)
		}
		want := d.Summary()
		if len(want) == 0 {
			if len(h.Summary) != 0 {
				t.Fatalf("fresh doc's hello carries summary %v", h.Summary)
			}
			continue
		}
		if !reflect.DeepEqual(map[string][]egwalker.SeqRange(h.Summary), map[string][]egwalker.SeqRange(want)) {
			t.Fatalf("hello summary %v, want %v", h.Summary, want)
		}
	}
}

// TestDocHelloResumeRejectsGarbageVersion: trailing bytes that do not
// decode as a version summary must fail the hello, not be silently
// dropped — and a hostile agent count must fail at the truncation
// checks without a proportional allocation (this is the
// unauthenticated first frame of a server connection).
func TestDocHelloResumeRejectsGarbageVersion(t *testing.T) {
	for _, agentCount := range []uint64{1 << 50, 4 << 20} {
		tail := binary.AppendUvarint(nil, agentCount)
		// Enough padding that a count-trusting decoder would allocate
		// millions of entries before hitting the end.
		tail = append(tail, make([]byte, 4096)...)
		if _, err := ReadHello(bytes.NewReader(v2Frame(capCompact|helloSummary, "doc", tail))); err == nil {
			t.Fatalf("hostile agent count %d accepted", agentCount)
		}
	}
}

func TestDocHelloRejectsBadIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, Hello{DocID: "", Compact: true}); err == nil {
		t.Error("empty doc ID accepted")
	}
	if err := writeHello(&buf, Hello{DocID: strings.Repeat("x", maxDocID+1), Compact: true}); err == nil {
		t.Error("oversized doc ID accepted")
	}
	// A hello frame whose uvarint claims a huge ID length must be
	// rejected by the length check, not trusted.
	payload := binary.AppendUvarint(nil, capCompact)
	payload = binary.AppendUvarint(payload, 1<<40)
	payload = append(payload, "short"...)
	if _, err := ReadHello(bytes.NewReader(rawFrame(msgDocHello2, payload))); err == nil {
		t.Error("hostile doc-ID length accepted")
	}
	// Wrong first frame type.
	if _, err := ReadHello(bytes.NewReader(rawFrame(msgEvents, nil))); err == nil {
		t.Error("non-hello first frame accepted")
	}
}

// TestFrameCapBoundsAllocation: a corrupt or hostile peer advertising
// an enormous frame must be refused at the header, before any payload
// allocation — the 16 MiB cap.
func TestFrameCapBoundsAllocation(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], egwalker.MaxBatchBytes+1)
	hdr[4] = msgEvents
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	if err == nil {
		t.Fatal("frame over the cap accepted")
	}
	if !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Exactly at the cap with a truncated body: accepted by the header
	// check, then fails on the short read — never a success.
	binary.BigEndian.PutUint32(hdr[:4], egwalker.MaxBatchBytes)
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("truncated max-size frame accepted")
	}
	// The writer enforces the same cap.
	if err := writeFrame(&bytes.Buffer{}, msgEvents, make([]byte, egwalker.MaxBatchBytes+1)); err == nil {
		t.Fatal("writeFrame accepted an over-cap payload")
	}
}

// TestChunkedEventsSend: batches beyond the 64k-event chunk
// egwalker.MarshalBatches splits at go out as several frames and
// reassemble losslessly on the other side.
func TestChunkedEventsSend(t *testing.T) {
	const chunk = 1 << 16
	src := egwalker.NewDoc("bulk")
	text := strings.Repeat("0123456789abcdef", (chunk+100)/16+1)
	if err := src.Insert(0, text); err != nil {
		t.Fatal(err)
	}
	events := src.Events()
	if len(events) <= chunk {
		t.Fatalf("test batch too small: %d events", len(events))
	}
	var buf bytes.Buffer
	if err := writeEventsChunked(&buf, events); err != nil {
		t.Fatal(err)
	}
	dst := egwalker.NewDoc("recv")
	frames := 0
	for buf.Len() > 0 {
		typ, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != msgEvents {
			t.Fatalf("frame %d: type %#x", frames, typ)
		}
		evs, err := egwalker.UnmarshalEventsAuto(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Apply(evs); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if frames < 2 {
		t.Fatalf("large batch went out in %d frame(s), want several", frames)
	}
	if dst.Text() != src.Text() {
		t.Fatal("chunked transfer corrupted the document")
	}
}
