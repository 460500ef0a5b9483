package netsync

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"egwalker"
	"egwalker/internal/colenc"
)

// TestDocHelloV2RoundTrip: of every generation and flag combination of
// the doc hello, only the v2 compact hello reads back; the rest are
// refused with an error naming what was sent.
func TestDocHelloV2RoundTrip(t *testing.T) {
	v := egwalker.Version{{Agent: "a", Seq: 41}, {Agent: "b", Seq: 7}}
	cases := []struct {
		name  string
		frame []byte
		want  string // refusal; "" for accepted
	}{
		{"v2 plain", v2Frame(0, "d", nil), "without the compact bit"},
		{"v2 compact", v2Frame(capCompact, "d", nil), ""},
		{"v2 resume", v2Frame(helloResume, "d", frontierBytes(v)), "frontier-resume"},
		{"v2 resume compact", v2Frame(capCompact|helloResume, "d", frontierBytes(v)), "frontier-resume"},
		{"legacy plain", v1Frame("d", nil), "v1 doc hello"},
		{"legacy resume", v1Frame("d", v), "v1 doc hello"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ReadHello(bytes.NewReader(tc.frame))
			if tc.want == "" {
				if err != nil || h.DocID != "d" || !h.Compact {
					t.Fatalf("got %+v, %v; want the compact hello for d", h, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestDocHelloV2UnknownFlagsRejected: a hello with flag bits this
// reader does not know must fail loudly, not be half-understood.
func TestDocHelloV2UnknownFlagsRejected(t *testing.T) {
	if _, err := ReadHello(bytes.NewReader(v2Frame(capCompact|0x40, "d", nil))); err == nil {
		t.Fatal("unknown hello flags accepted")
	}
}

// TestCompactChunkedFramesAreColumnar: SendEvents writes a batch in the
// encoding egwalker.MarshalBatches picks — columnar from 4 events, the
// legacy codec below that, an empty batch as one legacy frame — and
// every frame decodes through the sniffing reader to the events sent.
func TestCompactChunkedFramesAreColumnar(t *testing.T) {
	src := egwalker.NewDoc("a")
	if err := src.Insert(0, "compact framing test"); err != nil {
		t.Fatal(err)
	}
	all := src.Events()
	for _, n := range []int{0, 1, 3, 4, 8, len(all)} {
		var buf bytes.Buffer
		if err := frameConn(nil, &buf).SendEvents(all[:n]); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(&buf)
		if err != nil || typ != msgEvents || buf.Len() != 0 {
			t.Fatalf("%d events: frame type %#x, %v, %d bytes after it; want one events frame", n, typ, err, buf.Len())
		}
		if colenc.Sniff(payload) != (n >= 4) {
			t.Fatalf("%d events: columnar %v, want %v", n, colenc.Sniff(payload), n >= 4)
		}
		evs, err := egwalker.UnmarshalEventsAuto(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != n || n > 0 && !reflect.DeepEqual(evs, all[:n]) {
			t.Fatalf("%d events decoded as %d different ones", n, len(evs))
		}
	}
}

// TestPushOfTypedHistoryIsColumnar: a client uploading a long typed
// history — a reconnecting client's offline branch — sends it in the
// columnar codec, at under 3 bytes per event, not ~10 in the legacy one.
func TestPushOfTypedHistoryIsColumnar(t *testing.T) {
	doc := egwalker.NewDoc("offline-writer")
	for i := range 5000 {
		if err := doc.Insert(i, string(rune('a'+i%26))); err != nil {
			t.Fatal(err)
		}
	}
	var wire bytes.Buffer
	c, err := Dial(egwalker.NewDoc("empty"), struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), &wire}, "doc")
	if err != nil {
		t.Fatal(err)
	}
	wire.Reset()
	if err := c.Push(doc.Events()); err != nil {
		t.Fatal(err)
	}
	if per := float64(wire.Len()) / 5000; per > 3 {
		t.Fatalf("Push put %d bytes on the wire for 5000 typed events (%.2f B/event), want at most 3 B/event", wire.Len(), per)
	}
}

// TestSyncCompactConverges: two peers exchange summaries, send each
// other their gaps in compact frames, and converge.
func TestSyncCompactConverges(t *testing.T) {
	a, b := egwalker.NewDoc("a"), egwalker.NewDoc("b")
	if err := a.Insert(0, "left side"); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(0, "right side"); err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	errs := make(chan error, 2)
	go func() { errs <- Sync(a, ca) }()
	go func() { errs <- Sync(b, cb) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if a.Text() != b.Text() || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("no convergence: %q vs %q", a.Text(), b.Text())
	}
}

// TestSyncRefusesHelloWithoutSummary: a peer that opens Sync with the
// retired frontier hello — a version and a capability byte, no summary —
// is refused by name, and is sent no events.
func TestSyncRefusesHelloWithoutSummary(t *testing.T) {
	doc := egwalker.NewDoc("modern")
	if err := doc.Insert(0, "history the old peer is missing"); err != nil {
		t.Fatal(err)
	}
	modern, old := net.Pipe()
	syncErr := make(chan error, 1)
	go func() { syncErr <- Sync(doc, modern) }()
	go func() {
		// Writes go through a buffer like the real protocol's do.
		bw := bufio.NewWriter(old)
		if writeFrame(bw, msgHello, append(frontierBytes(nil), capCompact)) == nil {
			bw.Flush()
		}
	}()

	typ, _, err := readFrame(old)
	if err != nil || typ != msgSummary {
		t.Fatalf("first frame from Sync: type %#x, %v; want its summary", typ, err)
	}
	err = <-syncErr
	if err == nil || !strings.Contains(err.Error(), "frontier Sync hello") {
		t.Fatalf("Sync err = %v, want a refusal naming the frontier hello", err)
	}
	modern.Close()
	if typ, _, err := readFrame(old); err == nil {
		t.Fatalf("refused peer was sent a frame of type %#x", typ)
	}
}

// TestRecvFrameRefusesPrunedFile: an events frame carrying a pruned file —
// a whole document, never a batch — is refused, not applied.
func TestRecvFrameRefusesPrunedFile(t *testing.T) {
	d := egwalker.NewDoc("p")
	if err := d.Insert(0, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(1, 3); err != nil {
		t.Fatal(err)
	}
	var file, wire bytes.Buffer
	if err := d.Save(&file, egwalker.SaveOptions{OmitDeletedContent: true}); err != nil {
		t.Fatal(err)
	}
	if err := frameConn(nil, &wire).SendRaw(file.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f, err := frameConn(wire.Bytes(), nil).RecvFrame(); err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Fatalf("RecvFrame of a pruned file: %v, %d events", err, len(f.Events))
	}
}
