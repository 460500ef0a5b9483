package egwalker

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	alice := NewDoc("alice")
	if err := alice.Insert(0, "Helo"); err != nil {
		t.Fatal(err)
	}
	bob := NewDoc("bob")
	if _, err := bob.Apply(alice.Events()); err != nil {
		t.Fatal(err)
	}
	bobHas := bob.Version()
	aliceHas := alice.Version()

	if err := alice.Insert(3, "l"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Insert(4, "!"); err != nil {
		t.Fatal(err)
	}

	evA, err := alice.EventsSince(bobHas)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := bob.EventsSince(aliceHas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Apply(evA); err != nil {
		t.Fatal(err)
	}
	patches, err := alice.Apply(evB)
	if err != nil {
		t.Fatal(err)
	}
	if alice.Text() != "Hello!" || bob.Text() != "Hello!" {
		t.Fatalf("diverged: %q vs %q", alice.Text(), bob.Text())
	}
	// The "!" must have been transformed from index 4 to index 5 on
	// alice's side (Figure 1).
	if len(patches) != 1 || !patches[0].Insert || patches[0].Pos != 5 {
		t.Fatalf("patches = %+v, want one insert at 5", patches)
	}
}

func TestLocalEditingErrors(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(1, "x"); err == nil {
		t.Error("insert past end accepted")
	}
	if err := d.Delete(0, 1); err == nil {
		t.Error("delete from empty accepted")
	}
	if err := d.Insert(0, ""); err != nil {
		t.Error("empty insert should be a no-op")
	}
	if err := d.Delete(0, 0); err != nil {
		t.Error("empty delete should be a no-op")
	}
}

func TestOutOfOrderDelivery(t *testing.T) {
	src := NewDoc("src")
	if err := src.Insert(0, "abc"); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(1, 1); err != nil {
		t.Fatal(err)
	}
	evs := src.Events()
	dst := NewDoc("dst")
	// Deliver in reverse order: everything must buffer, then flush.
	for i := len(evs) - 1; i > 0; i-- {
		if _, err := dst.Apply(evs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Text() != "" || dst.PendingEvents() != len(evs)-1 {
		t.Fatalf("early apply: text %q pending %d", dst.Text(), dst.PendingEvents())
	}
	if _, err := dst.Apply(evs[0:1]); err != nil {
		t.Fatal(err)
	}
	if dst.Text() != src.Text() || dst.PendingEvents() != 0 {
		t.Fatalf("after flush: %q (pending %d), want %q", dst.Text(), dst.PendingEvents(), src.Text())
	}
}

func TestDuplicateDeliveryDoc(t *testing.T) {
	src := NewDoc("src")
	if err := src.Insert(0, "xyz"); err != nil {
		t.Fatal(err)
	}
	dst := NewDoc("dst")
	if _, err := dst.Apply(src.Events()); err != nil {
		t.Fatal(err)
	}
	patches, err := dst.Apply(src.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) != 0 || dst.Text() != "xyz" {
		t.Fatalf("duplicates re-applied: %d patches, %q", len(patches), dst.Text())
	}
}

func TestMergeConvenience(t *testing.T) {
	a := NewDoc("a")
	if err := a.Insert(0, "shared"); err != nil {
		t.Fatal(err)
	}
	b := NewDoc("b")
	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(6, " A"); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(0, "B "); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatalf("diverged: %q vs %q", a.Text(), b.Text())
	}
	if a.Text() != "B shared A" {
		t.Fatalf("unexpected merge result %q", a.Text())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "persistent text"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0, 3); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []SaveOptions{
		{},
		{CacheFinalDoc: true},
		{CacheFinalDoc: true, Compress: true},
		{OmitDeletedContent: true},
		{OmitDeletedContent: true, Compress: true},
		{OmitDeletedContent: true, CacheFinalDoc: true},
	} {
		var buf bytes.Buffer
		if err := d.Save(&buf, opts); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got, err := Load(&buf, "b")
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got.Text() != d.Text() {
			t.Fatalf("%+v: %q != %q", opts, got.Text(), d.Text())
		}
		if got.NumEvents() != d.NumEvents() {
			t.Fatalf("%+v: events %d != %d", opts, got.NumEvents(), d.NumEvents())
		}
		// The loaded doc must be editable and mergeable.
		if err := got.Insert(0, ">"); err != nil {
			t.Fatal(err)
		}
		if err := d.Merge(got); err != nil {
			t.Fatal(err)
		}
		if d.Text() != ">"+got.Text()[1:] && d.Text() != got.Text() {
			// After merging, d contains got's edit.
			t.Fatalf("%+v: merge after load: %q vs %q", opts, d.Text(), got.Text())
		}
		// Reset d for the next option set.
		d = NewDoc("a")
		if err := d.Insert(0, "persistent text"); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(0, 3); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTextAt(t *testing.T) {
	d := NewDoc("a")
	if err := d.Insert(0, "v1"); err != nil {
		t.Fatal(err)
	}
	v1 := d.Version()
	if err := d.Insert(2, " v2"); err != nil {
		t.Fatal(err)
	}
	v2 := d.Version()
	if err := d.Delete(0, 2); err != nil {
		t.Fatal(err)
	}
	got, err := d.TextAt(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got != "v1" {
		t.Fatalf("TextAt(v1) = %q", got)
	}
	got, err = d.TextAt(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got != "v1 v2" {
		t.Fatalf("TextAt(v2) = %q", got)
	}
	if _, err := d.TextAt(Version{{Agent: "ghost", Seq: 0}}); err == nil {
		t.Error("TextAt with unknown version accepted")
	}
}

func TestRandomMeshConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		docs := []*Doc{NewDoc("a"), NewDoc("b"), NewDoc("c"), NewDoc("d")}
		for step := 0; step < 150; step++ {
			d := docs[rng.Intn(len(docs))]
			switch {
			case rng.Intn(4) == 0: // merge from a random peer
				o := docs[rng.Intn(len(docs))]
				if o != d {
					if err := d.Merge(o); err != nil {
						t.Fatal(err)
					}
				}
			case d.Len() > 0 && rng.Intn(3) == 0:
				pos := rng.Intn(d.Len())
				n := 1 + rng.Intn(min(3, d.Len()-pos))
				if err := d.Delete(pos, n); err != nil {
					t.Fatal(err)
				}
			default:
				pos := rng.Intn(d.Len() + 1)
				if err := d.Insert(pos, string(rune('a'+rng.Intn(26)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Full mesh sync until stable.
		for round := 0; round < 3; round++ {
			for _, d := range docs {
				for _, o := range docs {
					if d != o {
						if err := d.Merge(o); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		for _, d := range docs[1:] {
			if d.Text() != docs[0].Text() {
				t.Fatalf("trial %d: %s diverged:\n%q\n%q", trial, d.Agent(), d.Text(), docs[0].Text())
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestVersionAndString(t *testing.T) {
	d := NewDoc("me")
	if len(d.Version()) != 0 {
		t.Error("empty doc version not empty")
	}
	if err := d.Insert(0, "hi"); err != nil {
		t.Fatal(err)
	}
	v := d.Version()
	if len(v) != 1 || v[0] != (EventID{Agent: "me", Seq: 1}) {
		t.Errorf("version = %v", v)
	}
	if s := d.String(); s == "" {
		t.Error("empty String()")
	}
}
