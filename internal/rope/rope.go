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
//
// A leaf is edited in place: an insert that fits shifts runes within the
// leaf's own array, and a leaf that must grow is reallocated with about a
// quarter of headroom, never past maxLeaf, so that typing at one place
// copies its leaf once every few dozen keystrokes rather than on every
// one. A leaf that deletes leave far below its capacity merges into a
// neighbour or shrinks. The rope never keeps a slice it is handed: what
// InsertRunes is given is copied, and may be a caller's scratch or an
// array that must not be written.
package rope

import (
	"fmt"
	"slices"
	"unicode/utf8"
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

// NewFromString returns a rope initialised with s. Its leaves are the
// sizes a split of the whole text into the fewest chunks of at most
// maxLeaf runes gives, each decoded from s straight into an array of
// exactly that size.
func NewFromString(s string) *Rope {
	total := utf8.RuneCountInString(s)
	if total == 0 {
		return New()
	}
	leaves := make([]*node, chunks(total))
	off := 0 // into s
	for i := range leaves {
		rs := make([]rune, chunkLen(total, len(leaves), i))
		for j := range rs {
			if c := s[off]; c < utf8.RuneSelf {
				rs[j] = rune(c)
				off++
				continue
			}
			c, w := utf8.DecodeRuneInString(s[off:])
			rs[j] = c
			off += w
		}
		leaves[i] = &node{length: len(rs), runes: rs}
	}
	return &Rope{root: buildParent(leaves)}
}

// NewFromUTF8 is NewFromString of bytes, read in place and not kept.
func NewFromUTF8(b []byte) *Rope { return NewFromString(unsafe.String(unsafe.SliceData(b), len(b))) }

// chunks is how many leaves total runes fill when none holds more than
// maxLeaf; chunkLen is the size of the i-th of them, the sizes differing
// by one at most.
func chunks(total int) int { return (total + maxLeaf - 1) / maxLeaf }

func chunkLen(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}

// roomFor is the capacity a leaf that must grow to n runes is given: a
// quarter more, never past maxLeaf.
func roomFor(n int) int { return min(maxLeaf, n+n/4) }

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
	if r.root == nil {
		return 0
	}
	return r.root.bytes()
}

func (n *node) bytes() int {
	b := int(unsafe.Sizeof(node{})) + cap(n.runes)*int(unsafe.Sizeof(rune(0))) + cap(n.children)*int(unsafe.Sizeof(n))
	for _, c := range n.children {
		b += c.bytes()
	}
	return b
}

// Insert inserts s at rune position pos.
func (r *Rope) Insert(pos int, s string) error {
	if s == "" {
		return nil
	}
	return r.InsertRunes(pos, []rune(s))
}

// InsertRunes inserts rs at rune position pos. rs is copied, never kept.
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
	var buf [2]*node
	if extra := insert(r.root, pos, rs, buf[:0]); len(extra) > 0 {
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
			next = append(next, newInternal(kids[i:min(i+maxChild, len(kids))]))
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

// insert adds rs at pos within n and appends any new right siblings
// produced by splits to extra, which it returns.
func insert(n *node, pos int, rs []rune, extra []*node) []*node {
	n.length += len(rs)
	if n.isLeaf() {
		return leafInsert(n, pos, rs, extra)
	}
	for i, c := range n.children {
		// Prefer inserting at the end of a child over the start of the
		// next (pos <= c.length), which keeps appends cheap.
		if pos <= c.length {
			if split := insert(c, pos, rs, extra); len(split) > len(extra) {
				n.children = slices.Insert(n.children, i+1, split[len(extra):]...)
			}
			return splitInternal(n, extra)
		}
		pos -= c.length
	}
	panic("rope: insert position beyond subtree")
}

// leafInsert splices rs into the leaf: in place when the leaf's array has
// room, into a new array with headroom when it does not, and into as few
// balanced chunks as hold the result when it overflows maxLeaf — the chunk
// the insert ends in keeps headroom, since typing goes on there, and the
// rest are exact. New leaves after n are appended to extra.
func leafInsert(n *node, pos int, rs []rune, extra []*node) []*node {
	old := n.runes
	total := len(old) + len(rs)
	if total <= cap(old) {
		n.runes = old[:total]
		copy(n.runes[pos+len(rs):], old[pos:])
		copy(n.runes[pos:], rs)
		return extra
	}
	if total <= maxLeaf {
		n.runes = make([]rune, total, roomFor(total))
		splice(n.runes, 0, old[:pos], rs, old[pos:])
		return extra
	}
	k := chunks(total)
	end := pos + len(rs)
	for i, off := 0, 0; i < k; i++ {
		size := chunkLen(total, k, i)
		room := size
		if off < end && end <= off+size {
			room = roomFor(size)
		}
		chunk := make([]rune, size, room)
		splice(chunk, off, old[:pos], rs, old[pos:])
		if i == 0 {
			n.runes, n.length = chunk, size
		} else {
			extra = append(extra, &node{length: size, runes: chunk})
		}
		off += size
	}
	return extra
}

// splice fills dst with the runes at [off, off+len(dst)) of a, b and c
// concatenated.
func splice(dst []rune, off int, a, b, c []rune) {
	for _, part := range [3][]rune{a, b, c} {
		if len(dst) == 0 {
			return
		}
		if off >= len(part) {
			off -= len(part)
			continue
		}
		w := copy(dst, part[off:])
		dst, off = dst[w:], 0
	}
}

// splitInternal splits n if it has too many children, appending the new
// right siblings to extra: as many as keep every node within maxChild.
func splitInternal(n *node, extra []*node) []*node {
	if len(n.children) <= maxChild {
		return extra
	}
	kids := n.children
	k := (len(kids) + maxChild - 1) / maxChild
	// The smaller groups first: n keeps its array, grown for the children
	// that are leaving, so it keeps the fewest.
	first := chunkLen(len(kids), k, k-1)
	for i, off := 1, first; i < k; i++ {
		size := chunkLen(len(kids), k, k-1-i)
		extra = append(extra, newInternal(kids[off:off+size]))
		off += size
	}
	clear(kids[first:])
	n.children = kids[:first]
	n.length = 0
	for _, c := range n.children {
		n.length += c.length
	}
	return extra
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
	if r.root.length == 0 {
		r.root = nil
		return nil
	}
	// Collapse single-child chains at the root to keep height tight.
	for !r.root.isLeaf() && len(r.root.children) == 1 {
		r.root = r.root.children[0]
	}
	if r.root.isLeaf() && sparse(r.root) {
		shrink(r.root)
	}
	return nil
}

// remove deletes [pos, pos+count) from the subtree, visiting only the
// children the range reaches: a backspace walks one path. Children it
// empties are pruned, and a leaf it leaves sparse merges into a neighbour
// or shrinks; underfull internal nodes are not rebalanced (deletes never
// increase height).
func remove(n *node, pos, count int) {
	n.length -= count
	if n.isLeaf() {
		n.runes = append(n.runes[:pos], n.runes[pos+count:]...)
		return
	}
	kids := n.children
	i := 0 // the first child the range reaches
	for pos >= kids[i].length {
		pos -= kids[i].length
		i++
	}
	j := i // the range reaches kids[i:j]
	for ; count > 0; j++ {
		take := min(kids[j].length-pos, count)
		remove(kids[j], pos, take)
		count, pos = count-take, 0 // the rest starts at the next child's start
	}
	// Only the first and the last child reached can keep some of their
	// runes, so the ones emptied are kids[lo:hi] and at most two leaves are
	// left to tidy.
	lo, hi := i, j
	if kids[i].length > 0 {
		lo++
	}
	if kids[j-1].length > 0 {
		hi--
	}
	if lo < hi {
		kids = slices.Delete(kids, lo, hi)
		j -= hi - lo
	}
	// The later first: a merge removes the right one of a pair, so the
	// earlier index still holds. The first is tidied only if its own delete
	// left it sparse.
	first := j > i && sparse(kids[i])
	if j-1 > i && sparse(kids[j-1]) {
		kids = tidy(kids, j-1)
	}
	if first && sparse(kids[i]) {
		kids = tidy(kids, i)
	}
	n.children = kids
}

// sparse reports whether a leaf holds less than two thirds of what its
// array could: more room than growing gives it (roomFor), by enough that a
// leaf shrunk to roomFor is not sparse again a few deletes later.
func sparse(leaf *node) bool { return 3*len(leaf.runes) < 2*cap(leaf.runes) }

// tidy deals with kids[i], a sparse leaf: it moves into a neighbouring
// leaf that has room for both, or else its runes move to an array of the
// size roomFor gives. It returns kids, one shorter after a merge.
func tidy(kids []*node, i int) []*node {
	leaf := kids[i]
	for _, j := range [2]int{i + 1, i - 1} {
		if j < 0 || j >= len(kids) || !kids[j].isLeaf() || kids[j].length+leaf.length > maxLeaf {
			continue
		}
		left, right := kids[min(i, j)], kids[max(i, j)]
		merge(left, right)
		copy(kids[max(i, j):], kids[max(i, j)+1:])
		kids[len(kids)-1] = nil
		return kids[:len(kids)-1]
	}
	shrink(leaf)
	return kids
}

// merge moves the runes of right to the end of left, in the array of
// either when one has room for both.
func merge(left, right *node) {
	a, b := left.runes, right.runes
	switch total := len(a) + len(b); {
	case total <= cap(a):
		left.runes = append(a, b...)
	case total <= cap(b):
		left.runes = b[:total]
		copy(left.runes[len(a):], b)
		copy(left.runes, a)
	default:
		left.runes = make([]rune, total, roomFor(total))
		splice(left.runes, 0, a, b, nil)
	}
	left.length += right.length
	right.runes, right.length = nil, 0
}

// shrink moves a leaf's runes to an array of the size roomFor gives.
func shrink(leaf *node) {
	leaf.runes = append(make([]rune, 0, roomFor(len(leaf.runes))), leaf.runes...)
}

// String returns the full text: one allocation, of its exact size.
func (r *Rope) String() string {
	b := r.AppendUTF8(make([]byte, 0, r.UTF8Len()))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// UTF8Len returns the length of the text in UTF-8: what AppendUTF8 appends.
func (r *Rope) UTF8Len() int { return r.root.utf8Len() }

// AppendUTF8 appends the text to dst in UTF-8, leaf after leaf, a rune that
// is not valid as U+FFFD: into a buffer UTF8Len sized, no string between.
func (r *Rope) AppendUTF8(dst []byte) []byte { return r.root.appendUTF8(dst) }

func (n *node) utf8Len() int {
	if n == nil {
		return 0
	}
	size := len(n.runes)
	for _, c := range n.runes {
		if uint32(c) >= utf8.RuneSelf {
			size += len(string(c)) - 1
		}
	}
	for _, c := range n.children {
		size += c.utf8Len()
	}
	return size
}

func (n *node) appendUTF8(dst []byte) []byte {
	if n == nil {
		return dst
	}
	for _, c := range n.runes {
		dst = utf8.AppendRune(dst, c)
	}
	for _, c := range n.children {
		dst = c.appendUTF8(dst)
	}
	return dst
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
