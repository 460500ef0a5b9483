// Package rope implements a rune-indexed text rope: a B-tree whose leaves
// hold chunks of runes, supporting O(log n) insertion and deletion at
// arbitrary positions. It is the "document state" substrate from the
// Eg-walker paper (§3: "in memory it may be represented as a rope, piece
// table, or similar structure to support efficient insertions and
// deletions").
//
// Positions are in runes (Unicode scalar values), matching the paper's
// definition of an insertion event carrying exactly one Unicode scalar
// value.
package rope

import (
	"fmt"
	"strings"
	"unsafe"
)

const (
	maxLeaf  = 128 // max runes per leaf chunk
	maxChild = 16  // max children per internal node
)

// node is either a leaf (children == nil, runes holds text) or an internal
// node (children non-nil). length caches the total rune count of the
// subtree.
type node struct {
	length   int
	runes    []rune
	children []*node
}

func (n *node) isLeaf() bool { return n.children == nil }

// Rope is a mutable text buffer. The zero value is an empty rope ready to
// use.
type Rope struct {
	root *node
}

// New returns an empty rope.
func New() *Rope { return &Rope{} }

// NewFromString returns a rope initialised with s.
func NewFromString(s string) *Rope {
	r := New()
	if err := r.Insert(0, s); err != nil {
		panic(err) // cannot happen: 0 is always in range
	}
	return r
}

// Len returns the length of the text in runes.
func (r *Rope) Len() int {
	if r.root == nil {
		return 0
	}
	return r.root.length
}

// Bytes returns the heap the rope holds, from the capacities of its
// chunks and child lists: a walk of its nodes, one per hundred characters
// or so.
func (r *Rope) Bytes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		b := int(unsafe.Sizeof(node{})) + cap(n.runes)*int(unsafe.Sizeof(rune(0))) + cap(n.children)*int(unsafe.Sizeof(n))
		for _, c := range n.children {
			b += walk(c)
		}
		return b
	}
	if r.root == nil {
		return 0
	}
	return walk(r.root)
}

// Insert inserts s at rune position pos.
func (r *Rope) Insert(pos int, s string) error {
	if s == "" {
		return nil
	}
	return r.InsertRunes(pos, []rune(s))
}

// InsertRunes inserts rs at rune position pos.
func (r *Rope) InsertRunes(pos int, rs []rune) error {
	if pos < 0 || pos > r.Len() {
		return fmt.Errorf("rope: insert at %d out of range [0,%d]", pos, r.Len())
	}
	if len(rs) == 0 {
		return nil
	}
	if r.root == nil {
		r.root = &node{}
	}
	if extra := insert(r.root, pos, rs); len(extra) > 0 {
		// Root split: grow a new root over the old root and the new
		// siblings; buildParent groups them if there are many.
		r.root = buildParent(append([]*node{r.root}, extra...))
	}
	return nil
}

// buildParent wraps kids in a minimal tree of internal nodes.
func buildParent(kids []*node) *node {
	for len(kids) > maxChild {
		var next []*node
		for i := 0; i < len(kids); i += maxChild {
			j := i + maxChild
			if j > len(kids) {
				j = len(kids)
			}
			next = append(next, newInternal(kids[i:j]))
		}
		kids = next
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return newInternal(kids)
}

func newInternal(kids []*node) *node {
	n := &node{children: append([]*node(nil), kids...)}
	for _, c := range kids {
		n.length += c.length
	}
	return n
}

// insert adds rs at pos within n and returns any new right siblings
// produced by splits.
func insert(n *node, pos int, rs []rune) []*node {
	n.length += len(rs)
	if n.isLeaf() {
		return leafInsert(n, pos, rs)
	}
	for i, c := range n.children {
		// Prefer inserting at the end of a child over the start of the
		// next (pos <= c.length), which keeps appends cheap.
		if pos <= c.length {
			extra := insert(c, pos, rs)
			if len(extra) > 0 {
				n.children = append(n.children[:i+1], append(extra, n.children[i+1:]...)...)
			}
			return splitInternal(n)
		}
		pos -= c.length
	}
	panic("rope: insert position beyond subtree")
}

// leafInsert splices rs into the leaf, splitting into extra leaves if the
// chunk overflows.
func leafInsert(n *node, pos int, rs []rune) []*node {
	combined := make([]rune, 0, len(n.runes)+len(rs))
	combined = append(combined, n.runes[:pos]...)
	combined = append(combined, rs...)
	combined = append(combined, n.runes[pos:]...)
	if len(combined) <= maxLeaf {
		n.runes = combined
		return nil
	}
	// Chop into even chunks; keep the first in n.
	chunks := chop(combined)
	n.runes = chunks[0]
	n.length = len(chunks[0])
	extra := make([]*node, 0, len(chunks)-1)
	for _, c := range chunks[1:] {
		extra = append(extra, &node{length: len(c), runes: c})
	}
	return extra
}

// chop splits rs into chunks of at most maxLeaf runes, balanced so no
// chunk is pathologically small.
func chop(rs []rune) [][]rune {
	nChunks := (len(rs) + maxLeaf - 1) / maxLeaf
	base := len(rs) / nChunks
	rem := len(rs) % nChunks
	out := make([][]rune, 0, nChunks)
	off := 0
	for i := 0; i < nChunks; i++ {
		size := base
		if i < rem {
			size++
		}
		chunk := make([]rune, size)
		copy(chunk, rs[off:off+size])
		out = append(out, chunk)
		off += size
	}
	return out
}

// splitInternal splits n if it has too many children, returning new right
// siblings.
func splitInternal(n *node) []*node {
	if len(n.children) <= maxChild {
		return nil
	}
	half := len(n.children) / 2
	right := newInternal(n.children[half:])
	n.children = n.children[:half]
	n.length = 0
	for _, c := range n.children {
		n.length += c.length
	}
	return []*node{right}
}

// Delete removes count runes starting at pos.
func (r *Rope) Delete(pos, count int) error {
	if count < 0 || pos < 0 || pos+count > r.Len() {
		return fmt.Errorf("rope: delete [%d,%d) out of range [0,%d]", pos, pos+count, r.Len())
	}
	if count == 0 {
		return nil
	}
	remove(r.root, pos, count)
	if r.root != nil && r.root.length == 0 {
		r.root = nil
	}
	// Collapse single-child chains at the root to keep height tight.
	for r.root != nil && !r.root.isLeaf() && len(r.root.children) == 1 {
		r.root = r.root.children[0]
	}
	return nil
}

// remove deletes [pos, pos+count) from the subtree. Underfull nodes are
// not rebalanced (deletes never increase height), but empty children are
// pruned.
func remove(n *node, pos, count int) {
	n.length -= count
	if n.isLeaf() {
		n.runes = append(n.runes[:pos], n.runes[pos+count:]...)
		return
	}
	kept := n.children[:0]
	for _, c := range n.children {
		if count > 0 && pos < c.length {
			take := c.length - pos
			if take > count {
				take = count
			}
			remove(c, pos, take)
			count -= take
			pos = 0 // remaining deletion continues at the next child's start
		} else if count > 0 {
			pos -= c.length
		}
		if c.length > 0 {
			kept = append(kept, c)
		}
	}
	n.children = kept
}

// String returns the full text.
func (r *Rope) String() string {
	var b strings.Builder
	b.Grow(r.Len())
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			b.WriteString(string(n.runes))
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(r.root)
	return b.String()
}

// Slice returns the text in rune range [start, end).
func (r *Rope) Slice(start, end int) (string, error) {
	if start < 0 || end < start || end > r.Len() {
		return "", fmt.Errorf("rope: slice [%d,%d) out of range [0,%d]", start, end, r.Len())
	}
	var b strings.Builder
	b.Grow(end - start)
	slice(r.root, start, end, &b)
	return b.String(), nil
}

func slice(n *node, start, end int, b *strings.Builder) {
	if n == nil || start >= end {
		return
	}
	if n.isLeaf() {
		b.WriteString(string(n.runes[start:end]))
		return
	}
	off := 0
	for _, c := range n.children {
		lo, hi := start-off, end-off
		if lo < 0 {
			lo = 0
		}
		if hi > c.length {
			hi = c.length
		}
		if lo < hi {
			slice(c, lo, hi, b)
		}
		off += c.length
		if off >= end {
			return
		}
	}
}

// CharAt returns the rune at position pos.
func (r *Rope) CharAt(pos int) (rune, error) {
	if pos < 0 || pos >= r.Len() {
		return 0, fmt.Errorf("rope: index %d out of range [0,%d)", pos, r.Len())
	}
	n := r.root
	for !n.isLeaf() {
		for _, c := range n.children {
			if pos < c.length {
				n = c
				break
			}
			pos -= c.length
		}
	}
	return n.runes[pos], nil
}

// depth returns tree height, for tests.
func (r *Rope) depth() int {
	d := 0
	for n := r.root; n != nil; {
		d++
		if n.isLeaf() {
			break
		}
		n = n.children[0]
	}
	return d
}
