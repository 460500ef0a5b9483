package rope

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestEmpty(t *testing.T) {
	r := New()
	if r.Len() != 0 || r.String() != "" {
		t.Fatalf("empty rope: len=%d text=%q", r.Len(), r.String())
	}
}

func TestInsertBasic(t *testing.T) {
	r := New()
	if err := r.Insert(0, "Helo"); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(3, "l"); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(5, "!"); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "Hello!" {
		t.Fatalf("got %q, want Hello!", got)
	}
	if r.Len() != 6 {
		t.Fatalf("len = %d, want 6", r.Len())
	}
}

func TestInsertOutOfRange(t *testing.T) {
	r := NewFromString("abc")
	if err := r.Insert(4, "x"); err == nil {
		t.Error("insert past end accepted")
	}
	if err := r.Insert(-1, "x"); err == nil {
		t.Error("negative insert accepted")
	}
}

func TestDeleteBasic(t *testing.T) {
	r := NewFromString("Hello, world")
	if err := r.Delete(5, 7); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "Hello" {
		t.Fatalf("got %q, want Hello", got)
	}
}

func TestDeleteAll(t *testing.T) {
	r := NewFromString("abcdef")
	if err := r.Delete(0, 6); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.String() != "" {
		t.Fatalf("after delete all: len=%d %q", r.Len(), r.String())
	}
	// Rope must be reusable after emptying.
	if err := r.Insert(0, "xy"); err != nil {
		t.Fatal(err)
	}
	if r.String() != "xy" {
		t.Fatalf("got %q", r.String())
	}
}

func TestDeleteOutOfRange(t *testing.T) {
	r := NewFromString("abc")
	if err := r.Delete(1, 5); err == nil {
		t.Error("overlong delete accepted")
	}
	if err := r.Delete(-1, 1); err == nil {
		t.Error("negative delete accepted")
	}
}

func TestUnicode(t *testing.T) {
	r := New()
	if err := r.Insert(0, "日本語"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("rune len = %d, want 3", r.Len())
	}
	if err := r.Insert(1, "üé"); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "日üé本語" {
		t.Fatalf("got %q", got)
	}
}

// TestAppendUTF8: the text's UTF-8, leaf after leaf, is what converting
// its runes gives — a rune that is not valid becomes U+FFFD — and UTF8Len
// is its length; NewFromUTF8 reads it back.
func TestAppendUTF8(t *testing.T) {
	rs := []rune("ab日é🙂")
	for len(rs) < 3*maxLeaf {
		rs = append(rs, rs...)
	}
	rs = append(rs, 0xD800, -1, utf8.MaxRune+1)
	r := New()
	if err := r.InsertRunes(0, rs); err != nil {
		t.Fatal(err)
	}
	want := string(rs)
	if got := r.AppendUTF8([]byte("<")); string(got) != "<"+want {
		t.Fatalf("AppendUTF8 wrote %d bytes, want %d", len(got)-1, len(want))
	}
	if r.UTF8Len() != len(want) || r.String() != want {
		t.Fatalf("UTF8Len %d, String of %d bytes; want %d", r.UTF8Len(), len(r.String()), len(want))
	}
	if back := NewFromUTF8([]byte(want[:len(want)-9])); back.String() != want[:len(want)-9] {
		t.Fatal("NewFromUTF8 does not read back the text")
	}
}

func TestLargeSequentialInsert(t *testing.T) {
	r := New()
	var want strings.Builder
	for i := 0; i < 5000; i++ {
		s := string(rune('a' + i%26))
		if err := r.Insert(r.Len(), s); err != nil {
			t.Fatal(err)
		}
		want.WriteString(s)
	}
	if got := r.String(); got != want.String() {
		t.Fatal("sequential insert mismatch")
	}
	if d := r.depth(); d > 8 {
		t.Errorf("tree depth %d too large for 5000 runes", d)
	}
}

// TestRandomOpsAgainstSlice drives the rope and a naive []rune model with
// the same random operations and checks they agree.
func TestRandomOpsAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r := New()
		var model []rune
		for op := 0; op < 2000; op++ {
			if len(model) == 0 || rng.Intn(3) != 0 {
				pos := rng.Intn(len(model) + 1)
				n := 1 + rng.Intn(20)
				ins := make([]rune, n)
				for i := range ins {
					ins[i] = rune('A' + rng.Intn(50))
				}
				if err := r.InsertRunes(pos, ins); err != nil {
					t.Fatal(err)
				}
				model = append(model[:pos], append(append([]rune(nil), ins...), model[pos:]...)...)
			} else {
				pos := rng.Intn(len(model))
				n := 1 + rng.Intn(len(model)-pos)
				if err := r.Delete(pos, n); err != nil {
					t.Fatal(err)
				}
				model = append(model[:pos], model[pos+n:]...)
			}
			if r.Len() != len(model) {
				t.Fatalf("trial %d op %d: len %d != %d", trial, op, r.Len(), len(model))
			}
		}
		if got := r.String(); got != string(model) {
			t.Fatalf("trial %d: content mismatch", trial)
		}
	}
}

// TestQuickInsertDelete is a property test: inserting then deleting the
// same range restores the original text.
func TestQuickInsertDelete(t *testing.T) {
	f := func(base string, ins string, posSeed uint) bool {
		r := NewFromString(base)
		n := r.Len()
		pos := int(posSeed % uint(n+1))
		if err := r.Insert(pos, ins); err != nil {
			return false
		}
		if err := r.Delete(pos, len([]rune(ins))); err != nil {
			return false
		}
		return r.String() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkRope holds r to the text of model and to the tree's invariants:
// every node's cached length is the sum below it, every leaf is non-empty
// and holds at most maxLeaf bytes in an array of at most maxLeaf, those
// bytes are valid UTF-8 and encode as many characters as the leaf caches,
// an empty rope has no tree, and where the last edit left off, if that is
// a leaf of the tree, is where that character starts.
func checkRope(t *testing.T, r *Rope, model []rune) {
	t.Helper()
	if got := r.String(); got != string(model) || r.Len() != len(model) || r.UTF8Len() != len(got) {
		t.Fatalf("rope holds %q (len %d, %d bytes), want %q (len %d)", got, r.Len(), r.UTF8Len(), string(model), len(model))
	}
	if (r.root == nil) != (len(model) == 0) {
		t.Fatalf("root %v for a text of %d runes", r.root, len(model))
	}
	var walk func(n *node) int
	walk = func(n *node) int {
		if n.isLeaf() {
			if len(n.text) == 0 || len(n.text) > maxLeaf || cap(n.text) > maxLeaf {
				t.Fatalf("leaf of %d bytes (cap %d)", len(n.text), cap(n.text))
			}
			if !utf8.Valid(n.text) || utf8.RuneCount(n.text) != n.length {
				t.Fatalf("leaf %q (valid UTF-8: %v) caches length %d", n.text, utf8.Valid(n.text), n.length)
			}
			if at := r.at; at.leaf == n && (at.char > n.length || len(string([]rune(string(n.text))[:at.char])) != at.off) {
				t.Fatalf("the last edit left off at character %d, byte %d of leaf %q", at.char, at.off, n.text)
			}
			return n.length
		}
		if len(n.children) == 0 || n.text != nil {
			t.Fatalf("internal node with %d children and %d bytes", len(n.children), len(n.text))
		}
		sum := 0
		for _, c := range n.children {
			sum += walk(c)
		}
		if sum != n.length {
			t.Fatalf("internal node caches length %d, its children hold %d", n.length, sum)
		}
		return sum
	}
	if r.root != nil {
		walk(r.root)
	}
}

// fuzzAlphabet has runes of every UTF-8 length.
var fuzzAlphabet = []rune("abcdefgh éü日本語𝄞😀")

// FuzzRope runs a byte script against the rope and a []rune model. Each
// op is a byte and its operands the bytes after it (zero past the end):
//
//	op%5 0, 1: insert at a position of two bytes; op&4 picks a run of
//	           1..8 runes or a long one of up to 311, which overflows a leaf
//	op%5 2:    delete a run at a position of two bytes, of a length of
//	           op>>3 and one more byte
//	op%5 3:    delete one rune, or with op&8 everything
//	op%5 4:    start over from NewFromString: the model's text, or with
//	           op&8 a fresh one of up to 4 650 runes
//
// After each op the rope must hold the model's text and its invariants
// (checkRope), and after each InsertRunes the slice it was given is
// scribbled over: the rope must not have kept it. Scripts are cut at 512
// bytes, since each op is checked against the whole text.
func FuzzRope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 0, 0})
	f.Fuzz(runScript)
}

// runScript is FuzzRope's body.
func runScript(t *testing.T, script []byte) {
	script = script[:min(len(script), 512)]
	arg := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	text := func(n, seed int) []rune {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = fuzzAlphabet[(seed+7*i)%len(fuzzAlphabet)]
		}
		return rs
	}
	r := New()
	var model []rune
	for len(script) > 0 {
		op := arg()
		switch op % 5 {
		case 0, 1:
			pos := (arg()<<8 | arg()) % (len(model) + 1)
			n := 1 + (op>>3)%8
			if op&4 != 0 {
				n = 1 + (op>>3)*10
			}
			ins := text(n, pos)
			if err := r.InsertRunes(pos, ins); err != nil {
				t.Fatal(err)
			}
			model = append(model[:pos], append(append([]rune(nil), ins...), model[pos:]...)...)
			for i := range ins {
				ins[i] = 'X'
			}
		case 2:
			if len(model) == 0 {
				continue
			}
			pos := (arg()<<8 | arg()) % len(model)
			n := 1 + ((op>>3)<<8|arg())%(len(model)-pos)
			if err := r.Delete(pos, n); err != nil {
				t.Fatal(err)
			}
			model = append(model[:pos], model[pos+n:]...)
		case 3:
			if len(model) == 0 {
				continue
			}
			pos, n := (arg()<<8|arg())%len(model), 1
			if op&8 != 0 {
				pos, n = 0, len(model)
			}
			if err := r.Delete(pos, n); err != nil {
				t.Fatal(err)
			}
			model = append(model[:pos], model[pos+n:]...)
		case 4:
			if op&8 != 0 {
				model = text((op>>4)*293+arg(), arg())
			}
			r = NewFromString(string(model))
		}
		checkRope(t, r, model)
	}
}

// TestRopeTypingAllocs: typing writes into the leaf the cursor is in, so
// 2 000 keystrokes at a moving cursor in a 3 500-rune text allocate a new
// leaf array every few dozen keystrokes, not one per keystroke: 15 168 B
// in 45 objects (74 272 B with leaves of 128 runes). The rope that copied
// its leaf on every insert allocated 835 872 B (2 247 objects) here.
func TestRopeTypingAllocs(t *testing.T) {
	r := NewFromString(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 78))
	rng := rand.New(rand.NewSource(3))
	cursor := r.Len() / 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 2000; i++ {
		if i%200 == 199 {
			cursor = rng.Intn(r.Len() + 1)
		}
		key := [1]rune{rune('a' + i%26)}
		if err := r.InsertRunes(cursor, key[:]); err != nil {
			t.Fatal(err)
		}
		cursor++
	}
	runtime.ReadMemStats(&m1)
	bytes, objects := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	t.Logf("2000 keystrokes: %d B in %d objects", bytes, objects)
	if bytes > 835_872/4 {
		t.Errorf("2000 keystrokes allocated %d B; want at most a quarter of 835 872", bytes)
	}
}

// TestRopeBackspaceAllocs: a backspace walks one path of the tree and
// deletes in place, so 2 000 of them at a moving cursor in a 3 500-rune
// text allocate only where a leaf they leave sparse is tidied — moved to a
// smaller array, or merged into a neighbour that has no room — and never
// a child list: 18 objects (6 976 B); 86 with leaves of 128 runes, which
// the bound stays at, the leaves the walk over every child tidied too.
func TestRopeBackspaceAllocs(t *testing.T) {
	r := NewFromString(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 78))
	rng := rand.New(rand.NewSource(3))
	cursor := r.Len() / 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 2000; i++ {
		if i%200 == 199 || cursor == 0 {
			cursor = 1 + rng.Intn(r.Len())
		}
		if err := r.Delete(cursor-1, 1); err != nil {
			t.Fatal(err)
		}
		cursor--
	}
	runtime.ReadMemStats(&m1)
	bytes, objects := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	t.Logf("2000 backspaces: %d B in %d objects", bytes, objects)
	if objects > 86 {
		t.Errorf("2000 backspaces allocated %d objects; want at most the 86 of the leaves they tidy", objects)
	}
}

func BenchmarkAppend(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Insert(r.Len(), "x"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomInsert(b *testing.B) {
	r := NewFromString(strings.Repeat("hello world ", 1000))
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Insert(rng.Intn(r.Len()+1), "y"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackspace backspaces a word a key at a time and types it again,
// at random places in a 100k-rune text.
func BenchmarkBackspace(b *testing.B) {
	r := NewFromString(strings.Repeat("hello world ", 8_334))
	rng := rand.New(rand.NewSource(2))
	word := []rune("backspac")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := len(word) + rng.Intn(r.Len()-len(word)+1)
		for pos := end - 1; pos >= end-len(word); pos-- {
			if err := r.Delete(pos, 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.InsertRunes(end-len(word), word); err != nil {
			b.Fatal(err)
		}
	}
}
