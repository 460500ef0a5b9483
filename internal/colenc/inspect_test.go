package colenc

import (
	"reflect"
	"testing"
)

func TestInspectLinearBatch(t *testing.T) {
	evs := typed("alice", "hello, world")
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumEvents != len(evs) {
		t.Fatalf("NumEvents = %d, want %d", info.NumEvents, len(evs))
	}
	want := []IDRun{{Agent: "alice", Seq: 0, Len: len(evs)}}
	if !reflect.DeepEqual(info.Runs, want) {
		t.Fatalf("Runs = %+v, want %+v", info.Runs, want)
	}
	if len(info.ExternalParents) != 0 {
		t.Fatalf("linear batch reported external parents: %+v", info.ExternalParents)
	}
	if info.HasDoc {
		t.Fatal("unexpected doc column")
	}
}

func TestInspectExternalParents(t *testing.T) {
	// A catch-up batch depending on history outside the batch: Inspect
	// must surface exactly those IDs (the in-batch backrefs are not
	// external).
	evs := []Event{
		{ID: ID{"b", 7}, Parents: []ID{{"a", 41}, {"c", 3}}, Insert: true, Pos: 9, Content: 'q'},
		{ID: ID{"b", 8}, Parents: []ID{{"b", 7}}, Pos: 9},
	}
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []ID{{"a", 41}, {"c", 3}}
	if !reflect.DeepEqual(info.ExternalParents, want) {
		t.Fatalf("ExternalParents = %+v, want %+v", info.ExternalParents, want)
	}
	wantRuns := []IDRun{{Agent: "b", Seq: 7, Len: 2}}
	if !reflect.DeepEqual(info.Runs, wantRuns) {
		t.Fatalf("Runs = %+v, want %+v", info.Runs, wantRuns)
	}
}

func TestInspectMultiAgentRuns(t *testing.T) {
	evs := []Event{
		{ID: ID{"a", 0}, Insert: true, Pos: 0, Content: 'x'},
		{ID: ID{"b", 0}, Insert: true, Pos: 0, Content: 'y'},
		{ID: ID{"a", 1}, Parents: []ID{{"a", 0}, {"b", 0}}, Pos: 0},
	}
	data, err := Encode(evs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []IDRun{
		{Agent: "a", Seq: 0, Len: 1},
		{Agent: "b", Seq: 0, Len: 1},
		{Agent: "a", Seq: 1, Len: 1},
	}
	if !reflect.DeepEqual(info.Runs, want) {
		t.Fatalf("Runs = %+v, want %+v", info.Runs, want)
	}
}

func TestInspectDocColumn(t *testing.T) {
	data, err := EncodeRunsDoc(Runs(typed("a", "final text")), "final text", Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasDoc {
		t.Fatal("doc column not reported")
	}
}

func TestInspectRejectsDamage(t *testing.T) {
	data, err := Encode(typed("a", "some content to damage"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(data[:len(data)-3]); err == nil {
		t.Error("truncated frame inspected cleanly")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := Inspect(flipped); err == nil {
		t.Error("CRC-damaged frame inspected cleanly")
	}
	if _, err := Inspect([]byte("EGW1junk")); err == nil {
		t.Error("wrong magic inspected cleanly")
	}
}
