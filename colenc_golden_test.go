package egwalker_test

// Golden-file compatibility tests for the compact columnar encoding:
// the fixtures under testdata/colenc/ are committed bytes that every
// future build must reproduce exactly (byte-exact encode) and read
// back correctly (decode). A codec change that alters the format
// fails here first — bump the format version and regenerate with
//
//	go test -run TestColencGolden -update-golden
//
// only when the change is intentional. docs/FORMAT.md documents the
// byte layout; the fixtures are small enough to decode by hand from
// the spec alone.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"egwalker"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files: testdata/colenc fixtures and api/*.txt")

// goldenBatch builds the deterministic event list the batch fixtures
// encode: two agents typing concurrently, a merge, backspaces, and a
// multi-byte rune.
func goldenBatch(t testing.TB) []egwalker.Event {
	a := egwalker.NewDoc("alice")
	if err := a.Insert(0, "hei"); err != nil {
		t.Fatal(err)
	}
	b, err := a.Fork("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(3, " world"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(1, 2); err != nil { // forward-delete run
		t.Fatal(err)
	}
	if err := b.Insert(1, "éy"); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	return a.Events()
}

// goldenDoc builds the document the whole-file fixtures encode.
func goldenDoc(t testing.TB) *egwalker.Doc {
	d := egwalker.NewDoc("alice")
	if err := d.Insert(0, "golden"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(5, 1); err != nil {
		t.Fatal(err)
	}
	return d
}

func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "colenc", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update-golden to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding changed (%d bytes, fixture %d).\nThe columnar format is load-bearing for committed files and WAL "+
			"segments; if this change is intentional, bump the format version and regenerate with -update-golden.",
			name, len(got), len(want))
	}
	return want
}

func TestColencGoldenBatch(t *testing.T) {
	events := goldenBatch(t)
	data, err := egwalker.MarshalEventsCompact(events)
	if err != nil {
		t.Fatal(err)
	}
	fixture := checkGolden(t, "batch.egc", data)

	decoded, err := egwalker.UnmarshalEventsAuto(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, events) {
		t.Fatal("fixture decodes to different events")
	}
}

func TestColencGoldenDocFiles(t *testing.T) {
	d := goldenDoc(t)
	cases := []struct {
		name string
		opts *egwalker.SaveOptions // nil: a legacy file, which nothing writes any more
	}{
		{"doc-plain.egc", &egwalker.SaveOptions{}},
		{"doc-cached.egc", &egwalker.SaveOptions{CacheFinalDoc: true}},
		{"doc-pruned.egc", &egwalker.SaveOptions{OmitDeletedContent: true}},
		{"doc-legacy.egw", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("testdata", "colenc", tc.name))
			if tc.opts != nil {
				var buf bytes.Buffer
				if err := d.Save(&buf, *tc.opts); err != nil {
					t.Fatal(err)
				}
				fixture = checkGolden(t, tc.name, buf.Bytes())
			} else if err != nil {
				t.Fatal(err)
			}

			loaded, err := egwalker.Load(bytes.NewReader(fixture), "loader")
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Text() != d.Text() {
				t.Fatalf("fixture loads to %q, want %q", loaded.Text(), d.Text())
			}
			if loaded.NumEvents() != d.NumEvents() {
				t.Fatalf("fixture loads %d events, want %d", loaded.NumEvents(), d.NumEvents())
			}
		})
	}
}

// TestColencGoldenEmptyBatch pins the smallest possible frame: header
// plus four empty columns. This is the worked example's starting point
// in docs/FORMAT.md.
func TestColencGoldenEmptyBatch(t *testing.T) {
	data, err := egwalker.MarshalEventsCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	fixture := checkGolden(t, "empty.egc", data)
	decoded, err := egwalker.UnmarshalEventsAuto(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 0 {
		t.Fatalf("empty fixture decodes to %d events", len(decoded))
	}
}
