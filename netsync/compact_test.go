package netsync

import (
	"bufio"
	"bytes"
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

// TestCompactChunkedFramesAreColumnar: with compact on, every events
// frame carries the columnar magic and still decodes via the sniffing
// Unmarshal.
func TestCompactChunkedFramesAreColumnar(t *testing.T) {
	src := egwalker.NewDoc("a")
	if err := src.Insert(0, "compact framing test"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeEventsChunked(&buf, src.Events(), true); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != msgEvents {
		t.Fatalf("frame: typ=%#x err=%v", typ, err)
	}
	if !colenc.Sniff(payload) {
		t.Fatalf("compact frame payload lacks columnar magic: % x", payload[:8])
	}
	evs, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, src.Events()) {
		t.Fatal("compact frame did not decode to the original events")
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
