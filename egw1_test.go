package egwalker

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"egwalker/internal/core"
)

// The files under testdata/egw1 were written by the EGW1 writer before it
// was removed, from one history of 1 020 events by three agents (typed
// words in several scripts, backspaces, forward deletes, merges): plain,
// with the cached text, compressed, pruned, and pruned with the cached
// text and compressed. twin.egc is the same document saved as EGC2 with
// its text. EGW1 is read-only now: these files are how its reader is
// tested.
var egw1Files = []string{"plain.egw", "cached.egw", "compressed.egw", "pruned.egw", "pruned-cached-compressed.egw"}

// egw1Twin loads testdata/egw1/twin.egc.
func egw1Twin(t testing.TB) *Doc {
	t.Helper()
	data, err := os.ReadFile("testdata/egw1/twin.egc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Load(bytes.NewReader(data), "twin")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// egw1Text is the text of the document the EGW1 files hold.
func egw1Text(t testing.TB) string { return egw1Twin(t).Text() }

// TestEGW1FilesLoadLikeTheirTwin: every EGW1 file loads to the text, the
// version and the events of its EGC2 twin. A pruned one records what it
// left out — what the twin's history deletes — and refuses to hand those
// characters out.
func TestEGW1FilesLoadLikeTheirTwin(t *testing.T) {
	twin := egw1Twin(t)
	deleted, err := core.Deleted(twin.log)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) == 0 {
		t.Fatal("the twin's history deletes nothing")
	}
	for _, name := range egw1Files {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile("testdata/egw1/" + name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Load(bytes.NewReader(data), "reader")
			if err != nil {
				t.Fatal(err)
			}
			if d.Text() != twin.Text() || !reflect.DeepEqual(d.Version(), twin.Version()) || d.NumEvents() != twin.NumEvents() {
				t.Fatalf("loads to %d events, version %v, text %q; the twin: %d, %v, %q",
					d.NumEvents(), d.Version(), d.Text(), twin.NumEvents(), twin.Version(), twin.Text())
			}
			pruned := bytes.HasPrefix([]byte(name), []byte("pruned"))
			if !pruned {
				if !reflect.DeepEqual(d.Events(), twin.Events()) {
					t.Fatal("the events differ from the twin's")
				}
				SaveMatchesReference(t, d)
				return
			}
			if !reflect.DeepEqual(d.pruned, deleted) {
				t.Fatalf("records %v as left out; the history deletes %v", d.pruned, deleted)
			}
			if _, err := d.EventsSince(nil); !errors.Is(err, ErrPruned) {
				t.Errorf("EventsSince(nil): %v, want ErrPruned", err)
			}
			if err := d.Save(new(bytes.Buffer), SaveOptions{}); !errors.Is(err, ErrPruned) {
				t.Errorf("an unpruned Save: %v, want ErrPruned", err)
			}
			// Saved pruned, it is what the twin saved pruned is.
			var got, want bytes.Buffer
			if err := d.Save(&got, SaveOptions{OmitDeletedContent: true}); err != nil {
				t.Fatal(err)
			}
			if err := twin.Save(&want, SaveOptions{OmitDeletedContent: true}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("saved pruned, it differs from its twin saved pruned")
			}
		})
	}
}
