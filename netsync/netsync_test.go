package netsync

import (
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"egwalker"
)

func TestMarshalRoundTrip(t *testing.T) {
	d := egwalker.NewDoc("alice")
	if err := d.Insert(0, "hello world"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(5, 6); err != nil {
		t.Fatal(err)
	}
	events := d.Events()
	data, err := egwalker.MarshalEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := egwalker.UnmarshalEventsAuto(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].ID != events[i].ID || got[i].Insert != events[i].Insert ||
			got[i].Pos != events[i].Pos || got[i].Content != events[i].Content {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
		if len(got[i].Parents) != len(events[i].Parents) {
			t.Fatalf("event %d parents: %v != %v", i, got[i].Parents, events[i].Parents)
		}
		for j := range events[i].Parents {
			if got[i].Parents[j] != events[i].Parents[j] {
				t.Fatalf("event %d parent %d mismatch", i, j)
			}
		}
	}
	// The decoded batch must apply cleanly to a fresh doc.
	fresh := egwalker.NewDoc("bob")
	if _, err := fresh.Apply(got); err != nil {
		t.Fatal(err)
	}
	if fresh.Text() != d.Text() {
		t.Fatalf("replay of decoded events: %q != %q", fresh.Text(), d.Text())
	}
}

func TestMarshalExternalParents(t *testing.T) {
	// A batch that excludes the history its parents reference: parent
	// refs must round trip as explicit IDs.
	a := egwalker.NewDoc("a")
	if err := a.Insert(0, "base"); err != nil {
		t.Fatal(err)
	}
	v := a.Version()
	if err := a.Insert(4, "!"); err != nil {
		t.Fatal(err)
	}
	batch, err := a.EventsSince(v)
	if err != nil {
		t.Fatal(err)
	}
	data, err := egwalker.MarshalEvents(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := egwalker.UnmarshalEventsAuto(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Parents) != 1 || got[0].Parents[0] != v[0] {
		t.Fatalf("external parent lost: %+v (want parent %v)", got, v[0])
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	d := egwalker.NewDoc("x")
	if err := d.Insert(0, "abcdef"); err != nil {
		t.Fatal(err)
	}
	good, err := egwalker.MarshalEvents(d.Events())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := egwalker.UnmarshalEventsAuto(nil); err == nil {
		t.Error("empty input accepted")
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		data := append([]byte(nil), good...)
		for j := 0; j < 1+rng.Intn(3); j++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Unmarshal panicked: %v", r)
				}
			}()
			_, _ = egwalker.UnmarshalEventsAuto(data[:rng.Intn(len(data)+1)])
		}()
	}
}

// TestQuickVersionRoundTrip: random version summaries — any agents, any
// seq sets, so any gaps — survive the wire encoding exactly.
func TestQuickVersionRoundTrip(t *testing.T) {
	f := func(agents []string, seqs [][]uint16) bool {
		s := egwalker.VersionSummary{}
		for i, agent := range agents {
			if i >= len(seqs) || len(seqs[i]) == 0 || s[agent] != nil {
				continue
			}
			qs := slices.Sorted(slices.Values(seqs[i]))
			var ranges []egwalker.SeqRange
			for _, q := range slices.Compact(qs) {
				if n := len(ranges); n > 0 && ranges[n-1].End == int(q) {
					ranges[n-1].End++
				} else {
					ranges = append(ranges, egwalker.SeqRange{Start: int(q), End: int(q) + 1})
				}
			}
			s[agent] = ranges
		}
		got, err := UnmarshalVersionSummary(MarshalVersionSummary(s))
		return err == nil && reflect.DeepEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// pipePair builds an in-memory full-duplex connection.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func TestSyncPipe(t *testing.T) {
	a := egwalker.NewDoc("alice")
	b := egwalker.NewDoc("bob")
	if err := a.Insert(0, "from alice. "); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(0, "from bob. "); err != nil {
		t.Fatal(err)
	}
	ca, cb := pipePair()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = Sync(a, ca) }()
	go func() { defer wg.Done(); errs[1] = Sync(b, cb) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
	}
	if a.Text() != b.Text() {
		t.Fatalf("diverged after sync: %q vs %q", a.Text(), b.Text())
	}
	// Idempotent: a second sync changes nothing.
	before := a.Text()
	ca, cb = pipePair()
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = Sync(a, ca) }()
	go func() { defer wg.Done(); errs[1] = Sync(b, cb) }()
	wg.Wait()
	if a.Text() != before {
		t.Fatal("resync changed the document")
	}
}

func TestSyncTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()

	a := egwalker.NewDoc("alice")
	b := egwalker.NewDoc("bob")
	if err := a.Insert(0, "tcp sync works"); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(0, "it really does "); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- Sync(a, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Sync(b, conn); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatalf("diverged over TCP: %q vs %q", a.Text(), b.Text())
	}
}

func TestRelayFanout(t *testing.T) {
	relay := NewRelay(egwalker.NewDoc("relay"))
	if err := relay.Doc().Insert(0, "doc: "); err != nil {
		t.Fatal(err)
	}

	// Two clients connect over pipes.
	mk := func(agent string) (*egwalker.Doc, *Client) {
		server, client := pipePair()
		go func() { _ = relay.Serve(server) }()
		d := egwalker.NewDoc(agent)
		c, err := Dial(d, client, "relay-doc")
		if err != nil {
			t.Fatalf("%s: dial: %v", agent, err)
		}
		// First inbound batch is the catch-up: here the whole history.
		if _, err := c.Receive(); err != nil {
			t.Fatalf("%s: snapshot: %v", agent, err)
		}
		return d, c
	}
	docA, cliA := mk("alice")
	docB, cliB := mk("bob")
	if docA.Text() != "doc: " || docB.Text() != "doc: " {
		t.Fatalf("snapshots wrong: %q %q", docA.Text(), docB.Text())
	}

	// Alice edits and pushes; Bob receives.
	before := docA.Version()
	if err := docA.Insert(docA.Len(), "hello from alice"); err != nil {
		t.Fatal(err)
	}
	evs, err := docA.EventsSince(before)
	if err != nil {
		t.Fatal(err)
	}
	if err := cliA.Push(evs); err != nil {
		t.Fatal(err)
	}
	if _, err := cliB.Receive(); err != nil {
		t.Fatal(err)
	}
	if docB.Text() != docA.Text() {
		t.Fatalf("fanout failed: %q vs %q", docB.Text(), docA.Text())
	}
	if relay.Doc().Text() != docA.Text() {
		t.Fatalf("relay replica behind: %q", relay.Doc().Text())
	}
	if err := cliA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cliB.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncAfterConcurrentRelayEdits(t *testing.T) {
	// Two docs diverge wildly, then one Sync round converges them; a
	// third doc syncs against either and gets the same text.
	rng := rand.New(rand.NewSource(5))
	a := egwalker.NewDoc("a")
	b := egwalker.NewDoc("b")
	for i := 0; i < 200; i++ {
		d := a
		if i%2 == 1 {
			d = b
		}
		if d.Len() > 0 && rng.Intn(4) == 0 {
			if err := d.Delete(rng.Intn(d.Len()), 1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.Insert(rng.Intn(d.Len()+1), "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	syncBoth := func(x, y *egwalker.Doc) {
		cx, cy := pipePair()
		var wg sync.WaitGroup
		wg.Add(2)
		var e1, e2 error
		go func() { defer wg.Done(); e1 = Sync(x, cx) }()
		go func() { defer wg.Done(); e2 = Sync(y, cy) }()
		wg.Wait()
		if e1 != nil || e2 != nil {
			t.Fatalf("sync errors: %v %v", e1, e2)
		}
	}
	syncBoth(a, b)
	if a.Text() != b.Text() {
		t.Fatalf("diverged: %q vs %q", a.Text(), b.Text())
	}
	c := egwalker.NewDoc("c")
	syncBoth(c, a)
	if c.Text() != a.Text() {
		t.Fatalf("third replica diverged")
	}
}

func TestFrameErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgHello, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != msgHello || string(payload) != "hi" {
		t.Fatalf("frame round trip: %v %v %q", typ, err, payload)
	}
	// Truncated frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, msgEvents, 1, 2})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("truncated frame accepted")
	}
	// Oversized frame header.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, msgEvents})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}
