package netsync_test

// Relay under realistic multi-client load, running over the simulator's
// in-memory stream transport (internal/sim.Link) instead of OS sockets:
// several concurrent clients, interleaved pushes, and clients that
// vanish mid-session and reconnect.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"egwalker"
	"egwalker/internal/sim"
	"egwalker/netsync"
)

// connect attaches a fresh Serve goroutine to the relay and returns the
// client end of the link plus a WaitGroup that joins the Serve
// goroutine. Once that WaitGroup is done, everything the client pushed
// has been applied to the relay and its doc may be read safely.
func connect(t *testing.T, r *netsync.Relay) (io.ReadWriteCloser, *sync.WaitGroup) {
	t.Helper()
	cEnd, sEnd := sim.NewLink()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = r.Serve(sEnd) // orderly or abrupt close both end Serve
	}()
	return cEnd, &wg
}

// dial opens a client for the relay's document over end.
func dial(t *testing.T, d *egwalker.Doc, end io.ReadWriter) *netsync.Client {
	t.Helper()
	c, err := netsync.Dial(d, end, "relay-doc")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drainUntil applies inbound batches until the doc holds want events or
// a deadline passes. The doc must not be touched concurrently.
func drainUntil(t *testing.T, c *netsync.Client, d *egwalker.Doc, want int) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for d.NumEvents() < want {
			if _, err := c.Receive(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("receive: %v (have %d/%d events)", err, d.NumEvents(), want)
		}
	case <-time.After(10 * time.Second):
		// Don't read d here: the receiver goroutine still owns it.
		t.Fatalf("timed out waiting for %d events", want)
	}
}

// pushEdit appends text locally and uploads the resulting events.
func pushEdit(d *egwalker.Doc, c *netsync.Client, text string) error {
	before := d.Version()
	if err := d.Insert(d.Len(), text); err != nil {
		return err
	}
	evs, err := d.EventsSince(before)
	if err != nil {
		return err
	}
	return c.Push(evs)
}

func TestRelayMultiClient(t *testing.T) {
	relay := netsync.NewRelay(egwalker.NewDoc("relay"))
	const nClients = 4
	const editsEach = 50

	// Every edit is one insert of a short tag, so the exact converged
	// event count is known up front.
	expected := 0
	for i := 0; i < nClients; i++ {
		for e := 0; e < editsEach; e++ {
			expected += utf8.RuneCountInString(fmt.Sprintf("[c%d:%d]", i, e))
		}
	}

	type peer struct {
		doc     *egwalker.Doc
		client  *netsync.Client
		serveWG *sync.WaitGroup
	}
	peers := make([]*peer, nClients)
	for i := range peers {
		end, wg := connect(t, relay)
		doc := egwalker.NewDoc(fmt.Sprintf("c%d", i))
		peers[i] = &peer{doc: doc, client: dial(t, doc, end), serveWG: wg}
		if _, err := peers[i].client.Receive(); err != nil {
			t.Fatalf("client %d snapshot: %v", i, err)
		}
	}

	// All clients edit and push concurrently, in small interleaved
	// batches — the pattern live collaboration produces.
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			for e := 0; e < editsEach; e++ {
				if err := pushEdit(p.doc, p.client, fmt.Sprintf("[c%d:%d]", i, e)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i, p)
	}
	wg.Wait()
	for range peers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Drain fanout until every client holds the full history, then shut
	// down; once the Serve goroutines join, the relay doc is quiescent.
	for i, p := range peers {
		drainUntil(t, p.client, p.doc, expected)
		if p.doc.PendingEvents() != 0 {
			t.Fatalf("client %d has %d pending events", i, p.doc.PendingEvents())
		}
	}
	for i, p := range peers {
		if err := p.client.Close(); err != nil {
			t.Fatalf("close client %d: %v", i, err)
		}
		p.serveWG.Wait()
	}
	if got := relay.Doc().NumEvents(); got != expected {
		t.Fatalf("relay has %d events, want %d", got, expected)
	}
	want := relay.Doc().Text()
	fp := relay.Doc().Fingerprint()
	for i, p := range peers {
		if p.doc.Fingerprint() != fp || p.doc.Text() != want {
			t.Fatalf("client %d diverged from relay", i)
		}
	}
}

func TestRelayDisconnectReconnect(t *testing.T) {
	relay := netsync.NewRelay(egwalker.NewDoc("relay"))
	const (
		preOffline  = "offline soon. "   // 14 events
		offlineEdit = "edited offline. " // 16 events
	)

	// A stable client that stays for the whole session.
	stableEnd, stableWG := connect(t, relay)
	stable := egwalker.NewDoc("stable")
	stableClient := dial(t, stable, stableEnd)
	if _, err := stableClient.Receive(); err != nil {
		t.Fatal(err)
	}

	// A flaky client joins, edits, and vanishes abruptly mid-session
	// (no DONE frame — the link just dies).
	flaky := egwalker.NewDoc("flaky")
	flakyEnd, flakyWG := connect(t, relay)
	flakyClient := dial(t, flaky, flakyEnd)
	if _, err := flakyClient.Receive(); err != nil {
		t.Fatal(err)
	}
	if err := pushEdit(flaky, flakyClient, preOffline); err != nil {
		t.Fatal(err)
	}
	flakyEnd.Close()
	flakyWG.Wait() // relay noticed the disconnect and applied the push
	offlineVersion := relay.Doc().Version()

	// While the flaky client is away, the stable one keeps editing —
	// these edits are concurrent with the flaky client's offline branch.
	stableRunes := 0
	for e := 0; e < 20; e++ {
		text := fmt.Sprintf("s%d ", e)
		stableRunes += utf8.RuneCountInString(text)
		if err := pushEdit(stable, stableClient, text); err != nil {
			t.Fatal(err)
		}
	}

	// The flaky client edits offline, then reconnects with the same doc:
	// the events its summary lacks, plus a push of everything the relay
	// lacked.
	if err := flaky.Insert(flaky.Len(), offlineEdit); err != nil {
		t.Fatal(err)
	}
	flakyEnd2, flakyWG2 := connect(t, relay)
	flakyClient = dial(t, flaky, flakyEnd2)
	if _, err := flakyClient.Receive(); err != nil { // catch-up
		t.Fatal(err)
	}
	missing, err := flaky.EventsSince(intersectKnown(flaky, offlineVersion))
	if err != nil {
		t.Fatal(err)
	}
	if err := flakyClient.Push(missing); err != nil {
		t.Fatal(err)
	}

	// Everyone converges on the union.
	expected := utf8.RuneCountInString(preOffline) + stableRunes + utf8.RuneCountInString(offlineEdit)
	drainUntil(t, flakyClient, flaky, expected)
	drainUntil(t, stableClient, stable, expected)
	if err := flakyClient.Close(); err != nil {
		t.Fatal(err)
	}
	flakyWG2.Wait()
	if err := stableClient.Close(); err != nil {
		t.Fatal(err)
	}
	stableWG.Wait()
	if got := relay.Doc().NumEvents(); got != expected {
		t.Fatalf("relay has %d events, want %d", got, expected)
	}
	if flaky.Text() != stable.Text() || flaky.Text() != relay.Doc().Text() {
		t.Fatalf("replicas diverged after reconnect:\nrelay:  %q\nstable: %q\nflaky:  %q",
			relay.Doc().Text(), stable.Text(), flaky.Text())
	}
}

// intersectKnown filters v down to the events d knows, mirroring what
// Sync does before calling EventsSince.
func intersectKnown(d *egwalker.Doc, v egwalker.Version) egwalker.Version {
	out := v[:0:0]
	for _, id := range v {
		if d.Knows(id) {
			out = append(out, id)
		}
	}
	return out
}

// TestRelayChurn hammers the connect/disconnect path while another
// client streams edits: this is the scenario that catches
// deregistration races in the fanout loop.
func TestRelayChurn(t *testing.T) {
	relay := netsync.NewRelay(egwalker.NewDoc("relay"))

	pusherEnd, pusherWG := connect(t, relay)
	pusher := egwalker.NewDoc("pusher")
	pusherClient := dial(t, pusher, pusherEnd)
	if _, err := pusherClient.Receive(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				end, serveWG := connect(t, relay)
				doc := egwalker.NewDoc(fmt.Sprintf("churn-%d-%d", w, i))
				c, err := netsync.Dial(doc, end, "relay-doc")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Receive(); err != nil {
					t.Error(err)
					return
				}
				end.Close() // abrupt, possibly mid-fanout
				serveWG.Wait()
			}
		}(w)
	}

	const pushes = 200
	for e := 0; e < pushes; e++ {
		if err := pushEdit(pusher, pusherClient, "x"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	churnWG.Wait()

	// The DONE frame sits behind all 200 event frames, so once Serve
	// joins, every push has been applied.
	if err := pusherClient.Close(); err != nil {
		t.Fatal(err)
	}
	pusherWG.Wait()
	if got := relay.Doc().NumEvents(); got != pushes {
		t.Fatalf("relay has %d events, want %d", got, pushes)
	}
	if got := relay.Doc().Text(); got != pusher.Text() {
		t.Fatalf("relay text %q != pusher text %q", got, pusher.Text())
	}
}
