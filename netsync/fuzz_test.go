package netsync

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"egwalker"
)

// frameConn is a PeerConn that reads in and writes to out.
func frameConn(in []byte, out *bytes.Buffer) *PeerConn {
	return NewPeerConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(in), out})
}

// resend writes f again through the Send* method of its kind.
func resend(p *PeerConn, f Frame) error {
	switch f.Kind {
	case FrameEvents:
		return p.SendRaw(f.Raw)
	case FrameDone:
		return p.SendDone()
	case FrameRedirect:
		return p.SendRedirect(f.Addrs)
	default:
		return p.SendSummary(f.Summary)
	}
}

// FuzzRecvFrame: after the hello every frame of a replica link or a
// redirect-aware client comes from the peer unchecked, so RecvFrame and
// RecvFrameRaw must never panic on hostile bytes; RecvFrame accepts
// nothing RecvFrameRaw refuses; neither accepts the retired version
// frame; and a frame either accepts, sent again through its own Send*
// and read back, is equal.
func FuzzRecvFrame(f *testing.F) {
	d := egwalker.NewDoc("seed")
	if err := d.Insert(0, "seed corpus"); err != nil {
		f.Fatal(err)
	}
	if err := d.Delete(2, 4); err != nil {
		f.Fatal(err)
	}
	batch, err := egwalker.MarshalEventsCompact(d.Events())
	if err != nil {
		f.Fatal(err)
	}
	for _, send := range []func(p *PeerConn) error{
		func(p *PeerConn) error { return p.SendRedirect([]string{"127.0.0.1:4222", "node-b:4232"}) },
		// The retired version frame: nothing sends it, RecvFrame refuses it.
		func(p *PeerConn) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			if err := writeFrame(p.bw, msgHello, frontierBytes(d.Version())); err != nil {
				return err
			}
			return p.bw.Flush()
		},
		func(p *PeerConn) error { return p.SendSummary(d.Summary()) },
		func(p *PeerConn) error { return p.SendRaw(batch) },
	} {
		var out bytes.Buffer
		if err := send(frameConn(nil, &out)); err != nil {
			f.Fatal(err)
		}
		frame := out.Bytes()
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(frame[:5+(len(frame)-5)/2])
		for _, at := range []int{4, 5, len(frame) / 2, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[at] ^= 0x04
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, rawErr := frameConn(data, nil).RecvFrameRaw()
		full, err := frameConn(data, nil).RecvFrame()
		if err == nil && rawErr != nil {
			t.Fatalf("RecvFrame accepted a frame RecvFrameRaw refused: %v", rawErr)
		}
		if rawErr == nil && data[4] == msgHello {
			t.Fatalf("RecvFrameRaw accepted the retired version frame as kind %d", raw.Kind)
		}
		for _, got := range []struct {
			f   Frame
			err error
			raw bool
		}{{raw, rawErr, true}, {full, err, false}} {
			if got.err != nil {
				continue
			}
			var out bytes.Buffer
			if err := resend(frameConn(nil, &out), got.f); err != nil {
				t.Fatalf("re-sending an accepted frame of kind %d: %v", got.f.Kind, err)
			}
			back := frameConn(out.Bytes(), nil)
			recv := back.RecvFrame
			if got.raw {
				recv = back.RecvFrameRaw
			}
			if again, err := recv(); err != nil || !reflect.DeepEqual(again, got.f) {
				t.Fatalf("frame of kind %d read back as %+v, %v; want %+v", got.f.Kind, again, err, got.f)
			}
		}
	})
}

// FuzzUnmarshal: Unmarshal must never panic, and events it accepts must
// be safely appliable (Apply may buffer or error, never crash).
func FuzzUnmarshal(f *testing.F) {
	d := egwalker.NewDoc("seed")
	if err := d.Insert(0, "seed corpus"); err != nil {
		f.Fatal(err)
	}
	if err := d.Delete(2, 4); err != nil {
		f.Fatal(err)
	}
	good, err := egwalker.MarshalEvents(d.Events())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 1, 'a', 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := egwalker.UnmarshalEventsAuto(data)
		if err != nil {
			return
		}
		doc := egwalker.NewDoc("fuzz")
		_, _ = doc.Apply(events)
	})
}

// FuzzReadHello: the doc hello is the unauthenticated first frame of
// every server connection, so ReadHello must never panic on hostile
// bytes; it must accept nothing but a v2 hello with the compact bit set
// and the retired resume bit clear; and any hello it accepts must
// survive a Forward → ReadHello round trip with the same parse (the
// cluster proxy path replays accepted hellos verbatim to the owning
// node).
func FuzzReadHello(f *testing.F) {
	seed := func(h Hello) []byte {
		var buf bytes.Buffer
		if err := writeHello(&buf, h); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	sum := egwalker.VersionSummary{
		"alice": {{Start: 0, End: 42}},
		"bob":   {{Start: 0, End: 2}, {Start: 3, End: 4}},
	}
	f.Add(seed(Hello{DocID: "plain", Compact: true}))
	// The refused generations, as raw bytes: v1 alone, v1 with a
	// trailing version, v2 with the resume bit and a version, v2 without
	// the compact bit.
	for _, r := range refusedHellos() {
		f.Add(r.frame)
	}
	f.Add(seed(Hello{DocID: "sum", Compact: true, Summary: sum}))
	f.Add(seed(Hello{DocID: "sum/replica", Compact: true, Replica: true, Summary: sum}))
	f.Add(seed(Hello{DocID: "redirect", Compact: true, Redirect: true, Summary: sum}))
	// Truncated v2 hello.
	full := seed(Hello{DocID: "cut", Compact: true})
	f.Add(full[:len(full)-2])
	// Unknown frame type, unknown flag bits, hostile doc-ID length, and
	// a length header past the frame cap.
	f.Add([]byte{0, 0, 0, 1, 0x7f, 0x00})
	f.Add(v2Frame(capCompact|helloSummary<<1, "d", nil))
	f.Add(rawFrame(msgDocHello, binary.AppendUvarint(nil, 1<<40)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, msgDocHello2})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		flags, n := binary.Uvarint(data[5:])
		if data[4] != msgDocHello2 || n <= 0 || flags&capCompact == 0 || flags&helloResume != 0 {
			t.Fatalf("accepted a hello that is not the v2 compact hello: type %#x, flags %#x", data[4], flags)
		}
		if h.DocID == "" || len(h.DocID) > maxDocID || !h.Compact {
			t.Fatalf("accepted hello %+v", h)
		}
		var fwd bytes.Buffer
		if err := h.Forward(&fwd); err != nil {
			t.Fatalf("Forward on accepted hello: %v", err)
		}
		h2, err := ReadHello(&fwd)
		if err != nil {
			t.Fatalf("re-read forwarded hello: %v", err)
		}
		if h2.DocID != h.DocID || h2.Compact != h.Compact || h2.Redirect != h.Redirect || h2.Replica != h.Replica ||
			(h2.Summary == nil) != (h.Summary == nil) || len(h2.Summary) != len(h.Summary) {
			t.Fatalf("forward round-trip drift: %+v vs %+v", h, h2)
		}
	})
}
