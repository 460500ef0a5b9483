// Package itemtree implements the order-statistic sequence underlying
// Eg-walker's internal state (paper §3.3–§3.4, §3.6, §3.8): a B-tree
// whose leaves hold the records of the temporary CRDT structure. Records
// are run-length encoded end-to-end: a single item covers a whole run of
// consecutively inserted characters (or a placeholder run standing for
// characters inserted before the replay base version), and items are
// split on demand when a later operation touches only part of a run.
//
// Every subtree is annotated with three sizes:
//
//   - raw: total units (characters) including invisible ones,
//   - cur: units visible in the *prepare* version (s_p = Ins),
//   - end: units visible in the *effect* version (s_e = Ins).
//
// This makes both index mappings O(log n): finding the record for a
// prepare-version index, and mapping a record back to its effect-version
// index (the transformed operation's index).
//
// One ID index — the paper's "second B-tree" — lets retreat/advance find
// a record by the ID of any unit it covers: a slice of (piece start, leaf)
// pairs sorted by start, placeholder pieces before real ones. The piece
// holding a unit is the one with the greatest start at or below the unit,
// found by binary search; its leaf is then scanned for the item. Real
// runs are applied in ascending LV order, so the slice grows by appends;
// only a split, which creates a piece start inside an existing run,
// inserts in the middle. An entry is written when its piece is created
// and rewritten when a leaf split moves the piece to a new leaf — an edit
// touches the entries of the pieces it makes or moves and no others.
package itemtree

import (
	"fmt"
	"math"
	"unsafe"
)

// ID identifies a record. Non-negative IDs are the LV of the insert event
// that created the character. IDs <= -2 identify placeholder units:
// PlaceholderID(u) for unit u of the replay base document. OriginStart and
// OriginEnd are sentinels for the CRDT origins of items at the ends of
// the document.
type ID = int64

const (
	// OriginStart marks "no item to the left" (document start).
	OriginStart ID = math.MinInt64
	// OriginEnd marks "no item to the right" (document end).
	OriginEnd ID = math.MaxInt64
)

// PlaceholderID returns the stable ID of unit u (0-based) of the replay
// base placeholder. Placeholder pieces may be split, but each unit's ID
// never changes.
func PlaceholderID(u int) ID { return -2 - int64(u) }

// PlaceholderUnit inverts PlaceholderID.
func PlaceholderUnit(id ID) int { return int(-2 - id) }

// IsPlaceholder reports whether id identifies a placeholder unit.
func IsPlaceholder(id ID) bool { return id <= -2 && id != OriginStart }

// AdvanceID returns the ID of the unit k places after id in document
// order within one run. Real runs have ascending unit IDs; placeholder
// unit IDs descend as the unit number ascends.
func AdvanceID(id ID, k int) ID {
	if IsPlaceholder(id) {
		return id - int64(k)
	}
	return id + int64(k)
}

// Prepare-version states (s_p in the paper, Figure 5).
const (
	StateNotInsertedYet int16 = -1 // insertion retreated
	StateInserted       int16 = 0  // visible
	// k >= 1 means deleted by k concurrent deletes, up to math.MaxInt16.
)

// Item is one record of the internal state, covering Len >= 1
// consecutive units. A real item covers a run of consecutively inserted
// characters (ID = LV of the run's first insert event; unit u of the run
// has ID ID+u); a placeholder piece covers consecutive units of the base
// document (ID = PlaceholderID of the first unit). State is uniform
// across an item's units: operations touching part of a run split it
// first. Only the first unit's CRDT origins are stored — unit u > 0 of a
// run implicitly has origin-left = unit u-1 and the run's origin-right,
// which is what splitting materialises. The record is 32 bytes: a piece
// is at most math.MaxInt32 units, the base placeholder's length.
type Item struct {
	ID          ID
	Len         int32
	CurState    int16 // s_p: -1 NYI, 0 Ins, k>=1 Del k
	EverDeleted bool  // s_e: true = Del
	OriginLeft  ID    // CRDT origin: unit immediately left at insert time
	OriginRight ID    // CRDT origin: next non-NYI unit at insert time
}

// unitID returns the stable ID of unit off of the item.
func (it *Item) unitID(off int) ID {
	if IsPlaceholder(it.ID) {
		return PlaceholderID(PlaceholderUnit(it.ID) + off)
	}
	return it.ID + int64(off)
}

func (it *Item) curVisible() bool { return it.CurState == StateInserted }
func (it *Item) endVisible() bool { return !it.EverDeleted }

func (it *Item) curUnits() int {
	if it.curVisible() {
		return int(it.Len)
	}
	return 0
}

func (it *Item) endUnits() int {
	if it.endVisible() {
		return int(it.Len)
	}
	return 0
}

const (
	maxItems = 32 // per leaf
	maxKids  = 16 // per internal node
)

type node struct {
	parent   *node
	children []*node // nil => leaf
	items    []Item  // leaf payload
	next     *node   // leaf linked list, left to right
	raw      int
	cur      int
	end      int
}

func (n *node) isLeaf() bool { return n.children == nil }

// recompute sets a leaf's aggregates from its items.
func (n *node) recompute() {
	n.raw, n.cur, n.end = 0, 0, 0
	for i := range n.items {
		it := &n.items[i]
		n.raw += int(it.Len)
		n.cur += it.curUnits()
		n.end += it.endUnits()
	}
}

// Tree is the internal-state sequence. The zero value is not usable; call
// New.
type Tree struct {
	root  *node
	index []indexEntry // the ID index: every piece start, sorted by key
}

// indexEntry locates one piece: the key of its first unit and the leaf
// that holds it.
type indexEntry struct {
	key  int64
	leaf *node
}

// phKeyBase puts placeholder units below every real ID in key order.
const phKeyBase = math.MinInt64 / 2

// keyOf maps a unit ID to its index key. Keys ascend in document order
// within a run for both kinds: a real unit's key is its ID, a placeholder
// unit's is its unit number offset by phKeyBase. IDs that name no unit
// (-1, the origin sentinels) get keys no piece covers.
func keyOf(id ID) int64 {
	if IsPlaceholder(id) {
		return phKeyBase + int64(PlaceholderUnit(id))
	}
	return id
}

// New returns an empty sequence.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Reset empties the tree for reuse, keeping the index's storage and one
// leaf's. The index is cleared first: the leaves it pointed at go.
func (t *Tree) Reset() {
	leaf := t.Start().leaf
	*leaf = node{items: leaf.items[:0]}
	t.root = leaf
	clear(t.index)
	t.index = t.index[:0]
}

// Bytes returns the heap the tree holds: its nodes with their arrays and
// the ID index, in use or not.
func (t *Tree) Bytes() int {
	b := cap(t.index) * int(unsafe.Sizeof(indexEntry{}))
	var walk func(n *node)
	walk = func(n *node) {
		b += int(unsafe.Sizeof(node{})) + cap(n.items)*int(unsafe.Sizeof(Item{})) + cap(n.children)*int(unsafe.Sizeof(n))
		for _, k := range n.children {
			walk(k)
		}
	}
	walk(t.root)
	return b
}

// Clone returns a deep copy of the tree: the nodes copied as they are and
// the ID index pointed at the new leaves, in O(n log n) however the IDs
// are ordered in the document.
func (t *Tree) Clone() *Tree {
	c := &Tree{index: append([]indexEntry(nil), t.index...)}
	var last *node // the leaf copied before the current one
	var copyNode func(n, parent *node) *node
	copyNode = func(n, parent *node) *node {
		m := &node{parent: parent, raw: n.raw, cur: n.cur, end: n.end}
		if n.isLeaf() {
			m.items = append(make([]Item, 0, maxItems+2), n.items...)
			for i := range m.items {
				c.index[c.indexFind(keyOf(m.items[i].ID))].leaf = m
			}
			if last != nil {
				last.next = m
			}
			last = m
			return m
		}
		m.children = make([]*node, len(n.children), maxKids+1)
		for i, k := range n.children {
			m.children[i] = copyNode(k, m)
		}
		return m
	}
	c.root = copyNode(t.root, nil)
	return c
}

// InitPlaceholder installs a single placeholder piece covering units
// [0, units) of the base document. Must be called on an empty tree.
func (t *Tree) InitPlaceholder(units int) {
	if t.RawLen() != 0 {
		panic("itemtree: InitPlaceholder on non-empty tree")
	}
	if units <= 0 {
		return
	}
	t.InsertAt(t.End(), Item{
		ID:          PlaceholderID(0),
		Len:         int32(units),
		CurState:    StateInserted,
		OriginLeft:  OriginStart,
		OriginRight: OriginEnd,
	})
}

// Items returns the number of pieces the sequence is held in.
func (t *Tree) Items() int { return len(t.index) }

// RawLen returns the total number of units including invisible ones.
func (t *Tree) RawLen() int { return t.root.raw }

// CurLen returns the number of units visible in the prepare version.
func (t *Tree) CurLen() int { return t.root.cur }

// EndLen returns the number of units visible in the effect version.
func (t *Tree) EndLen() int { return t.root.end }

// Cursor addresses one unit (or a boundary) in the sequence: the unit at
// items[idx] offset off within the item. Cursors are invalidated by any
// structural mutation of the tree.
type Cursor struct {
	leaf *node
	idx  int
	off  int
}

// Item returns a copy of the item under the cursor.
func (c Cursor) Item() Item { return c.leaf.items[c.idx] }

// Offset returns the unit offset within the item.
func (c Cursor) Offset() int { return c.off }

// Rewind returns a cursor k units earlier within the same item.
func (c Cursor) Rewind(k int) Cursor {
	if k > c.off {
		panic("itemtree: Rewind past item start")
	}
	c.off -= k
	return c
}

// UnitID returns the stable ID of the unit under the cursor.
func (c Cursor) UnitID() ID {
	return c.leaf.items[c.idx].unitID(c.off)
}

// Valid reports whether the cursor points at an item (false for the
// past-the-end cursor).
func (c Cursor) Valid() bool { return c.leaf != nil && c.idx < len(c.leaf.items) }

// NextItem advances the cursor to the start of the next item, returning
// false at the end of the sequence.
func (c *Cursor) NextItem() bool {
	c.off = 0
	c.idx++
	for c.idx >= len(c.leaf.items) {
		if c.leaf.next == nil {
			return false
		}
		c.leaf = c.leaf.next
		c.idx = 0
	}
	return true
}

// End returns a past-the-end cursor.
func (t *Tree) End() Cursor {
	leaf := t.rightmostLeaf()
	return Cursor{leaf: leaf, idx: len(leaf.items)}
}

// Start returns a cursor at the first item (or the end cursor if empty).
func (t *Tree) Start() Cursor {
	n := t.root
	for !n.isLeaf() {
		n = n.children[0]
	}
	return Cursor{leaf: n}
}

func (t *Tree) rightmostLeaf() *node {
	n := t.root
	for !n.isLeaf() {
		n = n.children[len(n.children)-1]
	}
	return n
}

// FindVisible returns a cursor at the pos-th (0-based) unit that is
// visible in the prepare version.
func (t *Tree) FindVisible(pos int) (Cursor, error) {
	if pos < 0 || pos >= t.CurLen() {
		return Cursor{}, fmt.Errorf("itemtree: prepare index %d out of range [0,%d)", pos, t.CurLen())
	}
	n := t.root
	for !n.isLeaf() {
		for _, c := range n.children {
			if pos < c.cur {
				n = c
				break
			}
			pos -= c.cur
		}
	}
	for i := range n.items {
		it := &n.items[i]
		cu := it.curUnits()
		if pos < cu {
			return Cursor{leaf: n, idx: i, off: pos}, nil
		}
		pos -= cu
	}
	panic("itemtree: aggregate/item mismatch in FindVisible")
}

// FindInsert locates the insertion point for a new item at prepare index
// pos: immediately after the pos-th visible unit (and before any
// following invisible items; the CRDT integrate scan decides the final
// spot among concurrent items). It returns the boundary cursor, the
// origin-left unit ID (OriginStart at the document head) and the
// origin-right unit ID (the next unit that exists in the prepare version,
// i.e. first item with s_p != NYI; OriginEnd at the tail).
func (t *Tree) FindInsert(pos int) (Cursor, ID, ID, error) {
	if pos < 0 || pos > t.CurLen() {
		return Cursor{}, 0, 0, fmt.Errorf("itemtree: insert index %d out of range [0,%d]", pos, t.CurLen())
	}
	var c Cursor
	left := OriginStart
	if pos == 0 {
		c = t.Start()
	} else {
		vc, err := t.FindVisible(pos - 1)
		if err != nil {
			return Cursor{}, 0, 0, err
		}
		left = vc.UnitID()
		c = vc
		c.off++ // boundary immediately after the visible unit
		c.normalize()
	}
	right := t.originRightFrom(c)
	return c, left, right, nil
}

// normalize moves a boundary cursor with off == item.Len to the start of
// the next item (keeping past-the-end cursors intact).
func (c *Cursor) normalize() {
	for c.Valid() && c.off >= int(c.leaf.items[c.idx].Len) {
		off := c.off - int(c.leaf.items[c.idx].Len)
		if !c.NextItem() {
			c.off = off
			return
		}
		c.off = off
	}
}

// originRightFrom scans right from boundary cursor c for the first unit
// whose item exists in the prepare version (s_p != NYI), returning its
// unit ID or OriginEnd.
func (t *Tree) originRightFrom(c Cursor) ID {
	for c.Valid() {
		it := c.leaf.items[c.idx]
		if it.CurState != StateNotInsertedYet {
			return c.UnitID()
		}
		if !c.NextItem() {
			break
		}
	}
	return OriginEnd
}

// FindRaw returns a boundary cursor at raw position pos (counting every
// unit, visible or not). pos may equal RawLen (the end boundary).
func (t *Tree) FindRaw(pos int) (Cursor, error) {
	if pos < 0 || pos > t.RawLen() {
		return Cursor{}, fmt.Errorf("itemtree: raw index %d out of range [0,%d]", pos, t.RawLen())
	}
	if pos == t.RawLen() {
		return t.End(), nil
	}
	n := t.root
	for !n.isLeaf() {
		for _, c := range n.children {
			if pos < c.raw {
				n = c
				break
			}
			pos -= c.raw
		}
	}
	for i := range n.items {
		if pos < int(n.items[i].Len) {
			return Cursor{leaf: n, idx: i, off: pos}, nil
		}
		pos -= int(n.items[i].Len)
	}
	panic("itemtree: aggregate/item mismatch in FindRaw")
}

// indexFind returns the position of the last index entry whose key is at
// most key, -1 if there is none.
func (t *Tree) indexFind(key int64) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.index[mid].key <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// indexAdd records that the piece starting at unit id lives in leaf.
func (t *Tree) indexAdd(id ID, leaf *node) {
	key := keyOf(id)
	n := len(t.index)
	if n == 0 || t.index[n-1].key < key {
		t.index = append(t.index, indexEntry{key, leaf})
		return
	}
	i := t.indexFind(key)
	if i >= 0 && t.index[i].key == key {
		t.index[i].leaf = leaf
		return
	}
	t.index = append(t.index, indexEntry{})
	copy(t.index[i+2:], t.index[i+1:])
	t.index[i+1] = indexEntry{key, leaf}
}

// CursorFor returns a cursor at the unit with the given ID. The unit may
// be interior to a multi-unit piece; the ID index resolves it without
// splitting.
func (t *Tree) CursorFor(id ID) (Cursor, error) {
	key := keyOf(id)
	i := t.indexFind(key)
	if i < 0 || (key >= 0) != (t.index[i].key >= 0) {
		return Cursor{}, fmt.Errorf("itemtree: unknown item ID %d", id)
	}
	e := t.index[i]
	off := int(key - e.key)
	start := AdvanceID(id, -off)
	for j := range e.leaf.items {
		if it := &e.leaf.items[j]; it.ID == start {
			if off >= int(it.Len) {
				return Cursor{}, fmt.Errorf("itemtree: unknown unit ID %d (offset %d beyond piece of len %d)", id, off, it.Len)
			}
			return Cursor{leaf: e.leaf, idx: j, off: off}, nil
		}
	}
	return Cursor{}, fmt.Errorf("itemtree: stale ID index for %d", id)
}

// RawPosOf returns the raw position (counting every unit) of the unit
// with the given ID. Sentinels are mapped to -1 (OriginStart) and RawLen
// (OriginEnd) so CRDT origin comparisons can use raw positions directly.
func (t *Tree) RawPosOf(id ID) (int, error) {
	switch id {
	case OriginStart:
		return -1, nil
	case OriginEnd:
		return t.RawLen(), nil
	}
	c, err := t.CursorFor(id)
	if err != nil {
		return 0, err
	}
	return t.RawPos(c), nil
}

// RawPos returns the raw position of the cursor.
func (t *Tree) RawPos(c Cursor) int {
	pos := c.off
	for i := 0; i < c.idx; i++ {
		pos += int(c.leaf.items[i].Len)
	}
	raw, _ := prefixBefore(c.leaf)
	return pos + raw
}

// CountEndBefore returns the number of effect-visible units strictly
// before the cursor: the transformed (effect-version) index of the unit
// at the cursor.
func (t *Tree) CountEndBefore(c Cursor) int {
	pos := 0
	if c.Valid() && c.leaf.items[c.idx].endVisible() {
		pos += c.off
	}
	for i := 0; i < c.idx; i++ {
		pos += c.leaf.items[i].endUnits()
	}
	_, end := prefixBefore(c.leaf)
	return pos + end
}

// prefixBefore sums the raw and end sizes of all subtrees strictly left
// of leaf.
func prefixBefore(leaf *node) (raw, end int) {
	for n := leaf; n.parent != nil; n = n.parent {
		for _, sib := range n.parent.children {
			if sib == n {
				break
			}
			raw += sib.raw
			end += sib.end
		}
	}
	return raw, end
}

// MutateRange applies fn to an item covering exactly the n units starting
// at the cursor, splitting the containing piece on demand so no other
// unit is affected. The range must not extend past the cursor's item, and
// fn must leave the item's ID and Len alone. It returns a cursor to the
// (possibly new) item covering the range.
func (t *Tree) MutateRange(c Cursor, n int, fn func(*Item)) Cursor {
	if n < 1 || c.off+n > int(c.leaf.items[c.idx].Len) {
		panic(fmt.Sprintf("itemtree: MutateRange of %d units at offset %d in piece of len %d",
			n, c.off, c.leaf.items[c.idx].Len))
	}
	c = t.isolate(c, n)
	it := &c.leaf.items[c.idx]
	cur, end := it.curUnits(), it.endUnits()
	fn(it)
	c.leaf.addSizes(0, it.curUnits()-cur, it.endUnits()-end)
	return c
}

// MutateUnit applies fn to exactly the unit under the cursor.
func (t *Tree) MutateUnit(c Cursor, fn func(*Item)) Cursor {
	return t.MutateRange(c, 1, fn)
}

// splitTail returns the tail [off, Len) of an item as a standalone piece.
// The CRDT origins are rewritten to the implicit per-unit origins of a
// run: the tail's first unit was inserted immediately after the unit
// before it, under the run's shared right origin.
func splitTail(it Item, off int) Item {
	tail := it
	tail.ID = it.unitID(off)
	tail.Len = it.Len - int32(off)
	tail.OriginLeft = it.unitID(off - 1)
	tail.OriginRight = it.OriginRight
	return tail
}

// isolate splits the cursor's piece so units [off, off+n) form their own
// item, and returns a cursor to it. The split changes no subtree size.
func (t *Tree) isolate(c Cursor, n int) Cursor {
	leaf, idx, off := c.leaf, c.idx, c.off
	it := leaf.items[idx]
	if off == 0 && n == int(it.Len) {
		return c
	}
	if off > 0 {
		// A head stays behind; the range starts a piece of its own.
		leaf.items[idx].Len = int32(off)
		idx++
		t.openSlot(leaf, idx, splitTail(it, off))
	}
	leaf.items[idx].Len = int32(n)
	if off+n < int(it.Len) {
		t.openSlot(leaf, idx+1, splitTail(it, off+n))
	}
	leaf, idx = t.splitIfFull(leaf, idx)
	return Cursor{leaf: leaf, idx: idx}
}

// openSlot makes item the new leaf.items[idx], moving the items from idx
// on up by one in place, and enters its start in the ID index.
func (t *Tree) openSlot(leaf *node, idx int, item Item) {
	leaf.items = append(leaf.items, Item{})
	copy(leaf.items[idx+1:], leaf.items[idx:])
	leaf.items[idx] = item
	t.indexAdd(item.ID, leaf)
}

// InsertAt inserts item at the boundary cursor c (before the unit the
// cursor addresses; a cursor with off > 0 splits the containing piece).
// It returns a cursor to the inserted item.
func (t *Tree) InsertAt(c Cursor, item Item) Cursor {
	if item.Len < 1 {
		panic("itemtree: inserting empty item")
	}
	leaf, idx := c.leaf, c.idx
	switch {
	case !c.Valid():
		// Past-the-end: append to the rightmost leaf.
		leaf = t.rightmostLeaf()
		idx = len(leaf.items)
	case c.off > 0:
		// Split the piece at off, then insert between the halves.
		old := leaf.items[idx]
		leaf.items[idx].Len = int32(c.off)
		idx++
		t.openSlot(leaf, idx, splitTail(old, c.off))
	}
	t.openSlot(leaf, idx, item)
	leaf.addSizes(int(item.Len), item.curUnits(), item.endUnits())
	leaf, idx = t.splitIfFull(leaf, idx)
	return Cursor{leaf: leaf, idx: idx}
}

// Extend grows the piece under the cursor by n units at its end: units
// in the piece's state whose IDs follow its last one, none of which may
// exist yet. It returns a cursor to the first of them.
func (t *Tree) Extend(c Cursor, n int) Cursor {
	it := &c.leaf.items[c.idx]
	c.off = int(it.Len)
	cur, end := it.curUnits(), it.endUnits()
	it.Len += int32(n)
	c.leaf.addSizes(n, it.curUnits()-cur, it.endUnits()-end)
	return c
}

// addSizes adds the deltas to the sizes of n and of all its ancestors.
func (n *node) addSizes(draw, dcur, dend int) {
	for ; n != nil; n = n.parent {
		n.raw += draw
		n.cur += dcur
		n.end += dend
	}
}

// splitIfFull splits an overfull leaf in two, rebalances its ancestors
// and moves the ID index entries of the items that changed leaf. It
// returns where the item at leaf.items[idx] is afterwards.
func (t *Tree) splitIfFull(leaf *node, idx int) (*node, int) {
	if len(leaf.items) <= maxItems {
		return leaf, idx
	}
	half := len(leaf.items) / 2
	right := &node{
		items: append(make([]Item, 0, maxItems+2), leaf.items[half:]...),
		next:  leaf.next,
	}
	leaf.items = leaf.items[:half]
	leaf.next = right
	right.recompute()
	leaf.raw -= right.raw
	leaf.cur -= right.cur
	leaf.end -= right.end
	for i := range right.items {
		t.index[t.indexFind(keyOf(right.items[i].ID))].leaf = right
	}
	t.insertSibling(leaf, right)
	if idx >= half {
		return right, idx - half
	}
	return leaf, idx
}

// insertSibling links newRight immediately after n under n's parent,
// splitting internal nodes as needed. Aggregates of ancestors are
// unchanged in total, but the parent chain is fixed up.
func (t *Tree) insertSibling(n, newRight *node) {
	parent := n.parent
	if parent == nil {
		// n was the root: grow a new root.
		root := &node{children: []*node{n, newRight}}
		n.parent, newRight.parent = root, root
		root.raw = n.raw + newRight.raw
		root.cur = n.cur + newRight.cur
		root.end = n.end + newRight.end
		t.root = root
		return
	}
	idx := -1
	for i, c := range parent.children {
		if c == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("itemtree: broken parent link")
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[idx+2:], parent.children[idx+1:])
	parent.children[idx+1] = newRight
	newRight.parent = parent
	if len(parent.children) > maxKids {
		half := len(parent.children) / 2
		right := &node{children: append([]*node(nil), parent.children[half:]...)}
		parent.children = parent.children[:half]
		for _, c := range right.children {
			c.parent = right
		}
		recomputeInner(parent)
		recomputeInner(right)
		t.insertSibling(parent, right)
	}
}

func recomputeInner(n *node) {
	n.raw, n.cur, n.end = 0, 0, 0
	for _, c := range n.children {
		n.raw += c.raw
		n.cur += c.cur
		n.end += c.end
	}
}

// Each calls fn for every item left to right (tests and debugging).
func (t *Tree) Each(fn func(Item) bool) {
	n := t.root
	for !n.isLeaf() {
		n = n.children[0]
	}
	for ; n != nil; n = n.next {
		for i := range n.items {
			if !fn(n.items[i]) {
				return
			}
		}
	}
}

// Check validates all internal invariants, for tests: item lengths,
// subtree sizes, parent links, and the ID index — strictly ascending, and
// holding the start of every piece exactly once, with the piece's leaf.
func (t *Tree) Check() error {
	pieces := 0
	var check func(n *node) (raw, cur, end int, err error)
	check = func(n *node) (int, int, int, error) {
		if n.isLeaf() {
			raw, cur, end := 0, 0, 0
			for i := range n.items {
				it := &n.items[i]
				if it.Len < 1 {
					return 0, 0, 0, fmt.Errorf("item %d has len %d", it.ID, it.Len)
				}
				raw += int(it.Len)
				cur += it.curUnits()
				end += it.endUnits()
				pieces++
				key := keyOf(it.ID)
				if j := t.indexFind(key); j < 0 || t.index[j].key != key {
					return 0, 0, 0, fmt.Errorf("piece start %d missing from the ID index", it.ID)
				} else if t.index[j].leaf != n {
					return 0, 0, 0, fmt.Errorf("ID index entry for piece %d points at another leaf", it.ID)
				}
			}
			if raw != n.raw || cur != n.cur || end != n.end {
				return 0, 0, 0, fmt.Errorf("leaf aggregates stale: have (%d,%d,%d) want (%d,%d,%d)",
					n.raw, n.cur, n.end, raw, cur, end)
			}
			return raw, cur, end, nil
		}
		raw, cur, end := 0, 0, 0
		for _, c := range n.children {
			if c.parent != n {
				return 0, 0, 0, fmt.Errorf("broken parent pointer")
			}
			r, cu, e, err := check(c)
			if err != nil {
				return 0, 0, 0, err
			}
			raw += r
			cur += cu
			end += e
		}
		if raw != n.raw || cur != n.cur || end != n.end {
			return 0, 0, 0, fmt.Errorf("inner aggregates stale")
		}
		return raw, cur, end, nil
	}
	if _, _, _, err := check(t.root); err != nil {
		return err
	}
	for i := 1; i < len(t.index); i++ {
		if t.index[i-1].key >= t.index[i].key {
			return fmt.Errorf("ID index not strictly ascending at %d", i)
		}
	}
	// Every piece was found under its own key and the keys are distinct,
	// so equal counts mean the index holds nothing else.
	if pieces != len(t.index) {
		return fmt.Errorf("ID index has %d entries for %d pieces", len(t.index), pieces)
	}
	return nil
}
