package main

import (
	"net"
	"time"

	"egwalker"
	"egwalker/netsync"
)

// connectDoc opens a serving connection for docID, resuming at summary
// (nil: a cold join). Single-node mode dials -addr and sends the doc
// hello; the catch-up then arrives as the connection's first inbound
// frame (haveFirst false). Cluster mode routes via the dialer, which
// must consume the first frame to tell a serve from a redirect — the
// catch-up is handed back in first (haveFirst true, possibly zero
// events), and the caller must process it before reading the
// connection.
func (c *config) connectDoc(docID string, summary egwalker.VersionSummary) (conn net.Conn, pc *netsync.PeerConn, first []egwalker.Event, haveFirst bool, err error) {
	if c.dialer == nil {
		conn, err = net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return nil, nil, nil, false, err
		}
		pc = netsync.NewPeerConn(conn)
		if err := pc.SendHello(netsync.Hello{DocID: docID, Compact: true, Summary: summary}); err != nil {
			conn.Close()
			return nil, nil, nil, false, err
		}
		return conn, pc, nil, false, nil
	}
	cc, f, err := c.dialer.ConnectServing(docID, summary)
	if err != nil {
		return nil, nil, nil, false, err
	}
	if f.Kind == netsync.FrameEvents {
		first = f.Events
	}
	return cc.Conn, cc.Peer, first, true, nil
}
