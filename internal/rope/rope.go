// Package rope implements a character-indexed text rope: a B-tree whose
// leaves hold chunks of UTF-8 text, supporting O(log n) insertion and
// deletion at arbitrary positions. It is the "document state" substrate
// from the Eg-walker paper (§3: "in memory it may be represented as a
// rope, piece table, or similar structure to support efficient insertions
// and deletions").
//
// Positions count characters (Unicode scalar values), matching the
// paper's definition of an insertion event carrying exactly one Unicode
// scalar value; a character that is not one (a surrogate, a negative
// rune, one past utf8.MaxRune) is held as U+FFFD.
//
// A leaf holds at most maxLeaf bytes of UTF-8, cut where a character
// starts, and their count of characters. In a leaf of ASCII a position is
// a byte offset; in any other, it is found by a scan from where the last
// edit left off, if that is in the leaf — typing goes on there — or from
// its start.
//
// A leaf is edited in place: an insert that fits shifts bytes within the
// leaf's own array, and a leaf that must grow is reallocated with about a
// quarter of headroom, never past maxLeaf, so that typing at one place
// copies its leaf once every few dozen keystrokes rather than on every
// one. A leaf that deletes leave far below its capacity merges into a
// neighbour or shrinks. The rope never keeps a slice it is handed: what
// InsertRunes and InsertUTF8 are given is copied, and may be a caller's
// scratch or an array that must not be written.
package rope

import (
	"fmt"
	"slices"
	"unicode/utf8"
	"unsafe"

	"egwalker/internal/utf8x"
)

const (
	maxLeaf  = 512 // max bytes of UTF-8 per leaf chunk
	maxChild = 16  // max children per internal node
)

// node is either a leaf (children == nil, text holds its characters) or
// an internal node (children non-nil). length caches the total character
// count of the subtree.
type node struct {
	length   int
	text     []byte
	children []*node
}

func (n *node) isLeaf() bool { return n.children == nil }

// Rope is a mutable text buffer. The zero value is an empty rope ready to
// use.
type Rope struct {
	root *node
	at   place // where the last edit left off, in the last leaf it edited
}

// place is where character char of leaf starts in its text: at byte off.
type place struct {
	leaf      *node
	char, off int
}

// New returns an empty rope.
func New() *Rope { return &Rope{} }

// NewFromString returns a rope initialised with s, a byte of it that is
// not UTF-8 read as U+FFFD. Its leaves are the fewest chunks of at most
// maxLeaf bytes that balanced cuts at character starts give, each copied
// from s into an array of exactly its size.
func NewFromString(s string) *Rope {
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	return NewFromUTF8(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// NewFromUTF8 is NewFromString of bytes that are valid UTF-8, read in
// place and not kept.
func NewFromUTF8(b []byte) *Rope {
	if len(b) == 0 {
		return New()
	}
	var leaves []*node
	split(b, func(chunk []byte, _ int) {
		leaves = append(leaves, &node{length: utf8x.Count(chunk), text: append([]byte(nil), chunk...)})
	})
	return &Rope{root: buildParent(leaves)}
}

// chunks is how many leaves total bytes fill when none holds more than
// maxLeaf; chunkLen is the size of the i-th of them, the sizes differing
// by one at most.
func chunks(total int) int { return (total + maxLeaf - 1) / maxLeaf }

func chunkLen(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}

// roomFor is the capacity a leaf that must grow to n bytes is given: a
// quarter more, never past maxLeaf.
func roomFor(n int) int { return min(maxLeaf, n+n/4) }

// find returns where character pos of leaf n, whose text holds chars
// characters, starts: pos itself when the text is ASCII, else a scan from
// p if p is in n, or from the leaf's start.
func (p *place) find(n *node, chars, pos int) int {
	switch {
	case len(n.text) == chars:
		return pos
	case p.leaf != n:
		return utf8x.Skip(n.text, pos)
	case pos >= p.char:
		return p.off + utf8x.Skip(n.text[p.off:], pos-p.char)
	}
	return utf8x.Back(n.text[:p.off], p.char-pos)
}

// split cuts text into the fewest chunks of at most maxLeaf bytes that
// balanced cuts (chunkLen), each moved back to the start of the character
// it falls in, give, and hands fn each chunk and where it starts.
func split(text []byte, fn func(chunk []byte, from int)) {
	for k := chunks(len(text)); ; k++ {
		cut := func(i int) int {
			off := i*(len(text)/k) + min(i, len(text)%k)
			for off < len(text) && text[off]&0xC0 == 0x80 {
				off--
			}
			return off
		}
		fits := true
		for i := 0; i < k && fits; i++ {
			fits = cut(i+1)-cut(i) <= maxLeaf
		}
		if fits {
			for i := 0; i < k; i++ {
				fn(text[cut(i):cut(i+1)], cut(i))
			}
			return
		}
	}
}

// Len returns the length of the text in characters.
func (r *Rope) Len() int {
	if r.root == nil {
		return 0
	}
	return r.root.length
}

// Bytes returns the heap the rope holds, from the capacities of its
// chunks and child lists: a walk of its nodes, one per few hundred bytes
// of text.
func (r *Rope) Bytes() int {
	if r.root == nil {
		return 0
	}
	return r.root.bytes()
}

func (n *node) bytes() int {
	b := int(unsafe.Sizeof(node{})) + cap(n.text) + cap(n.children)*int(unsafe.Sizeof(n))
	for _, c := range n.children {
		b += c.bytes()
	}
	return b
}

// Insert inserts s at character position pos.
func (r *Rope) Insert(pos int, s string) error {
	if s == "" {
		return nil
	}
	return r.InsertRunes(pos, []rune(s))
}

// InsertRunes inserts rs at character position pos, a rune that is not
// a Unicode scalar value as U+FFFD. rs is copied, never kept.
func (r *Rope) InsertRunes(pos int, rs []rune) error {
	var buf [64]byte
	text := buf[:0]
	for _, c := range rs {
		text = utf8.AppendRune(text, c)
	}
	return r.InsertUTF8(pos, text, len(rs))
}

// InsertUTF8 inserts text, valid UTF-8 of n characters, at character
// position pos. text is copied, never kept.
func (r *Rope) InsertUTF8(pos int, text []byte, n int) error {
	if pos < 0 || pos > r.Len() {
		return fmt.Errorf("rope: insert at %d out of range [0,%d]", pos, r.Len())
	}
	if n == 0 {
		return nil
	}
	if r.root == nil {
		r.root = &node{}
	}
	var buf [2]*node
	if extra := insert(r.root, pos, text, n, &r.at, buf[:0]); len(extra) > 0 {
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

// insert adds text, of chars characters, at pos within n and appends any
// new right siblings produced by splits to extra, which it returns. at is
// where the rope's last edit left off, and is left where this one does.
func insert(n *node, pos int, text []byte, chars int, at *place, extra []*node) []*node {
	n.length += chars
	if n.isLeaf() {
		return leafInsert(n, pos, text, chars, at, extra)
	}
	for i, c := range n.children {
		// Prefer inserting at the end of a child over the start of the
		// next (pos <= c.length), which keeps appends cheap.
		if pos <= c.length {
			if split := insert(c, pos, text, chars, at, extra); len(split) > len(extra) {
				n.children = slices.Insert(n.children, i+1, split[len(extra):]...)
			}
			return splitInternal(n, extra)
		}
		pos -= c.length
	}
	panic("rope: insert position beyond subtree")
}

// leafInsert splices text, of chars characters, into the leaf: in place
// when the leaf's array has room, into a new array with headroom when it
// does not, and into as few balanced chunks as hold the result when it
// overflows maxLeaf — the chunk the insert ends in keeps headroom, since
// typing goes on there, and the rest are exact. New leaves after n are
// appended to extra.
func leafInsert(n *node, pos int, text []byte, chars int, at *place, extra []*node) []*node {
	old := n.text
	off := at.find(n, n.length-chars, pos)
	total, end := len(old)+len(text), off+len(text)
	if total <= cap(old) {
		n.text = old[:total]
		copy(n.text[end:], old[off:])
		copy(n.text[off:], text)
	} else {
		n.text = append(append(append(make([]byte, 0, max(roomFor(total), total)), old[:off]...), text...), old[off:]...)
	}
	*at = place{n, pos + chars, end}
	if total <= maxLeaf {
		return extra
	}
	split(n.text, func(chunk []byte, from int) {
		leaf, room := n, len(chunk)
		if from > 0 {
			leaf = &node{}
			extra = append(extra, leaf)
		}
		if from < end && end <= from+len(chunk) {
			room = roomFor(room)
			*at = place{leaf, utf8x.Count(chunk[:end-from]), end - from}
		}
		leaf.text, leaf.length = append(make([]byte, 0, room), chunk...), utf8x.Count(chunk)
	})
	return extra
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

// Delete removes count characters starting at pos.
func (r *Rope) Delete(pos, count int) error {
	if count < 0 || pos < 0 || pos+count > r.Len() {
		return fmt.Errorf("rope: delete [%d,%d) out of range [0,%d]", pos, pos+count, r.Len())
	}
	if count == 0 {
		return nil
	}
	remove(r.root, pos, count, &r.at)
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
// increase height). at is where the rope's last edit left off, and is left
// where this one does, in the last leaf it deletes from: a tidy after it
// keeps that leaf's characters where they are, or drops the leaf.
func remove(n *node, pos, count int, at *place) {
	n.length -= count
	if n.isLeaf() {
		from := at.find(n, n.length+count, pos)
		to := from + count
		if len(n.text) != n.length+count {
			for to = from; count > 0; count-- { // over a character: its first byte, then its continuation bytes
				for to++; to < len(n.text) && n.text[to]&0xC0 == 0x80; to++ {
				}
			}
		}
		n.text = append(n.text[:from], n.text[to:]...)
		*at = place{n, pos, from}
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
		remove(kids[j], pos, take, at)
		count, pos = count-take, 0 // the rest starts at the next child's start
	}
	// Only the first and the last child reached can keep some of their
	// characters, so the ones emptied are kids[lo:hi] and at most two leaves are
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
func sparse(leaf *node) bool { return 3*len(leaf.text) < 2*cap(leaf.text) }

// tidy deals with kids[i], a sparse leaf: it moves into a neighbouring
// leaf that has room for both, or else its text moves to an array of the
// size roomFor gives. It returns kids, one shorter after a merge.
func tidy(kids []*node, i int) []*node {
	leaf := kids[i]
	for _, j := range [2]int{i + 1, i - 1} {
		if j < 0 || j >= len(kids) || !kids[j].isLeaf() || len(kids[j].text)+len(leaf.text) > maxLeaf {
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

// merge moves the text of right to the end of left, in the array of
// either when one has room for both.
func merge(left, right *node) {
	a, b := left.text, right.text
	switch total := len(a) + len(b); {
	case total <= cap(a):
		left.text = append(a, b...)
	case total <= cap(b):
		left.text = b[:total]
		copy(left.text[len(a):], b)
		copy(left.text, a)
	default:
		left.text = make([]byte, total, roomFor(total))
		copy(left.text[copy(left.text, a):], b)
	}
	left.length += right.length
	right.text, right.length = nil, 0
}

// shrink moves a leaf's text to an array of the size roomFor gives.
func shrink(leaf *node) {
	leaf.text = append(make([]byte, 0, roomFor(len(leaf.text))), leaf.text...)
}

// String returns the full text: one allocation, of its exact size.
func (r *Rope) String() string {
	b := r.AppendUTF8(make([]byte, 0, r.UTF8Len()))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// UTF8Len returns the length of the text in UTF-8: what AppendUTF8 appends.
func (r *Rope) UTF8Len() int { return r.root.utf8Len() }

// AppendUTF8 appends the text to dst in UTF-8, leaf after leaf: into a
// buffer UTF8Len sized, no string between.
func (r *Rope) AppendUTF8(dst []byte) []byte { return r.root.appendUTF8(dst) }

func (n *node) utf8Len() int {
	if n == nil {
		return 0
	}
	size := len(n.text)
	for _, c := range n.children {
		size += c.utf8Len()
	}
	return size
}

func (n *node) appendUTF8(dst []byte) []byte {
	if n == nil {
		return dst
	}
	dst = append(dst, n.text...)
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
