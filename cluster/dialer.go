package cluster

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// Dialer is a cluster-aware client connector. It spreads connections
// across its seed addresses (rotating the starting point per attempt)
// and advertises the redirect capability, so a node that does not own
// the requested document answers with a redirect frame instead of
// proxying; ConnectServing follows it to the owner.
type Dialer struct {
	// Addrs are the cluster's seed addresses (any subset of nodes).
	Addrs []string
	// Dial opens one connection. Defaults to TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
	// HandshakeTimeout bounds the hello write in connect and, in
	// ConnectServing, each hop's wait for the first frame — so a node
	// that accepts the dial but never serves (wedged, half-partitioned)
	// fails over to the next candidate instead of hanging the client.
	// Defaults to 10s; negative disables.
	HandshakeTimeout time.Duration

	next uint32
}

func (d *Dialer) handshakeTimeout() time.Duration {
	if d.HandshakeTimeout == 0 {
		return 10 * time.Second
	}
	if d.HandshakeTimeout < 0 {
		return 0
	}
	return d.HandshakeTimeout
}

// Conn is one established cluster connection: the raw conn, its
// framed peer, and which address answered.
type Conn struct {
	net.Conn
	Peer *netsync.PeerConn
	Addr string
}

// connect dials for docID and writes the doc hello (resuming at
// summary when it is non-empty), trying preferred addresses first —
// typically a prior RedirectError's Addrs — then the seed list. It
// returns as soon as a hello is written; whether the node serves,
// redirects, or proxies shows up in the subsequent frames.
func (d *Dialer) connect(docID string, summary egwalker.VersionSummary, preferred ...string) (*Conn, error) {
	dial := d.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	candidates := make([]string, 0, len(preferred)+len(d.Addrs))
	candidates = append(candidates, preferred...)
	if len(d.Addrs) > 0 {
		off := int(atomic.AddUint32(&d.next, 1)-1) % len(d.Addrs)
		for i := range d.Addrs {
			candidates = append(candidates, d.Addrs[(off+i)%len(d.Addrs)])
		}
	}
	seen := make(map[string]bool, len(candidates))
	var lastErr error
	for _, addr := range candidates {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		c, err := dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		if hs := d.handshakeTimeout(); hs > 0 {
			c.SetWriteDeadline(time.Now().Add(hs))
		}
		pc := netsync.NewPeerConn(c)
		err = pc.SendHello(netsync.Hello{
			DocID:    docID,
			Compact:  true,
			Redirect: true,
			Summary:  summary,
		})
		if err != nil {
			c.Close()
			lastErr = err
			continue
		}
		c.SetWriteDeadline(time.Time{})
		return &Conn{Conn: c, Peer: pc, Addr: addr}, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no addresses to dial for doc %q", docID)
	}
	return nil, lastErr
}

// ConnectServing connects for docID and resolves routing before
// returning: the serve contract guarantees the first inbound frame
// immediately (the catch-up snapshot or resume diff, empty or not),
// so it reads one frame and either follows the redirect it names or
// hands back the serving connection together with that first frame —
// which the caller must process before calling RecvFrame again.
func (d *Dialer) ConnectServing(docID string, summary egwalker.VersionSummary) (*Conn, netsync.Frame, error) {
	var preferred []string
	var lastErr error
	for hop := 0; hop < 8; hop++ {
		c, err := d.connect(docID, summary, preferred...)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, netsync.Frame{}, lastErr
		}
		// The serve contract promises the first frame immediately, so
		// waiting for it is handshake I/O: bound it, then lift the
		// deadline for the live stream.
		if hs := d.handshakeTimeout(); hs > 0 {
			c.SetReadDeadline(time.Now().Add(hs))
		}
		f, err := c.Peer.RecvFrame()
		if err != nil {
			// The node died or stalled between accept and serve; retry
			// from the seed list.
			c.Close()
			lastErr = err
			preferred = nil
			continue
		}
		c.SetReadDeadline(time.Time{})
		if f.Kind == netsync.FrameRedirect {
			c.Close()
			preferred = f.Addrs
			continue
		}
		return c, f, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: doc %q: redirect loop", docID)
	}
	return nil, netsync.Frame{}, lastErr
}
