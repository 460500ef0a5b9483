package egwalker

import (
	"bytes"
	"strings"
	"testing"
)

// TestApplyRefusesWhatAFileCannotHold: an event whose seq or position
// passes what a file holds (2^31-1) is refused with an error naming the
// limit before it enters the log, and the document stays as it was: its
// events, its text, and what Save writes and Load reads back. Such an
// event used to go into the log, even when the text then refused it, and
// the file saved after it did not load. At the limits exactly, the event
// goes in and the file loads.
func TestApplyRefusesWhatAFileCannotHold(t *testing.T) {
	hello := func() (*Doc, []byte) {
		d := NewDoc("a")
		if err := d.Insert(0, "hello"); err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := d.Save(&file, SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		return d, file.Bytes()
	}
	tip := []EventID{{Agent: "a", Seq: 4}}
	at := func(seq, pos int, insert bool) Event {
		return Event{ID: EventID{Agent: "q", Seq: seq}, Parents: tip, Insert: insert, Pos: pos, Content: '!'}
	}
	for _, c := range []struct {
		name   string
		events []Event
	}{
		{"seq 2^31-1", []Event{at(1<<31-1, 5, true)}},
		{"seq 2^40", []Event{at(1<<40, 5, true)}},
		{"a run from seq 2^31-2 past it", []Event{at(1<<31-2, 5, true), {ID: EventID{Agent: "q", Seq: 1<<31 - 1}, Parents: []EventID{{Agent: "q", Seq: 1<<31 - 2}}, Insert: true, Pos: 6, Content: '!'}}},
		{"insert at 2^31-1", []Event{at(0, 1<<31-1, true)}},
		{"insert at 2^40", []Event{at(0, 1<<40, true)}},
		{"delete at 2^31", []Event{at(0, 1<<31, false)}},
	} {
		d, before := hello()
		if _, err := d.Apply(c.events); err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("%s: Apply returned %v, want the limit named", c.name, err)
		}
		if d.NumEvents() != 5 || d.Text() != "hello" {
			t.Errorf("%s: the document holds %d events reading %q", c.name, d.NumEvents(), d.Text())
		}
		var after bytes.Buffer
		if err := d.Save(&after, SaveOptions{}); err != nil || !bytes.Equal(after.Bytes(), before) {
			t.Errorf("%s: Save wrote %d bytes (%v), not the %d it wrote before", c.name, after.Len(), err, len(before))
		}
		if back, err := Load(&after, "b"); err != nil || back.Text() != "hello" || back.NumEvents() != 5 {
			t.Errorf("%s: Load: %v", c.name, err)
		}
	}
	for _, ev := range []Event{at(1<<31-2, 5, true), at(0, 5, true)} {
		d, _ := hello()
		if _, err := d.Apply([]Event{ev}); err != nil || d.NumEvents() != 6 || d.Text() != "hello!" {
			t.Fatalf("%v: %v, %d events reading %q", ev.ID, err, d.NumEvents(), d.Text())
		}
		var file bytes.Buffer
		if err := d.Save(&file, SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		if back, err := Load(&file, "b"); err != nil || back.Fingerprint() != d.Fingerprint() {
			t.Fatalf("%v: Load: %v", ev.ID, err)
		}
	}
}
