// Package cluster turns a set of independent store.Servers into a
// static-membership replicated cluster.
//
// Placement is a consistent-hash ring: every node contributes VNodes
// virtual points, a document hashes to a position, and the first R
// distinct nodes walking clockwise from it are the document's replica
// set — the first of them the primary. Static membership keeps the
// assignment a pure function of (peers, doc ID): every node computes
// the same replica set with no coordination, and a restarting node
// rejoins with the placement it left with.
//
// Data flows origin-push: whichever replica accepts a client batch
// pushes it over persistent replica links to the rest of the
// document's replica set, and a periodic anti-entropy version
// exchange (the netsync resume machinery) heals anything the pushes
// missed — a rejoining replica converges from its own journal,
// receiving only the events it lacks. Clients that land on a
// non-owner are redirected (capability-negotiated) or transparently
// proxied. When a primary stays unreachable past a grace period, the
// next live replica on the ring serves its documents.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per server when Options
// does not set one. More points smooth the load split between nodes;
// 64 keeps the per-doc placement walk cheap while holding the
// imbalance across a handful of nodes to a few percent.
const DefaultVNodes = 64

// Ring is a static-membership consistent-hash ring. It is immutable
// after construction; all methods are safe for concurrent use.
type Ring struct {
	nodes    []string
	replicas int
	points   []ringPoint
}

type ringPoint struct {
	hash uint64
	node int
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a alone avalanches poorly on
// the short, near-identical "addr#vnode" strings the ring hashes —
// without the finalizer one node can end up owning over half the
// keyspace — so the ring runs every hash through a full bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing builds a ring over nodes (addresses; order-insensitive,
// duplicates rejected) with vnodes virtual points per node and a
// replication factor of replicas. Zero values take defaults; a
// replication factor above the node count is clamped to it.
func newRing(nodes []string, vnodes, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n)
		}
		seen[n] = true
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(nodes) {
		replicas = len(nodes)
	}
	r := &Ring{nodes: append([]string(nil), nodes...), replicas: replicas}
	// Sort the node list so the ring is a function of the membership
	// set, not of flag order on any one host.
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", n, v)), i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Replicas returns the document's replica set, primary first: the
// first replication-factor distinct nodes clockwise from the
// document's hash.
func (r *Ring) Replicas(docID string) []string {
	h := hash64(docID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, r.replicas)
	seen := make(map[int]bool, r.replicas)
	for n := 0; len(out) < r.replicas && n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// Primary returns the document's primary node.
func (r *Ring) Primary(docID string) string { return r.Replicas(docID)[0] }

// Nodes returns the membership (sorted).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }
