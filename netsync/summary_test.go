package netsync

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"

	"egwalker"
)

func TestVersionSummaryRoundTrip(t *testing.T) {
	cases := []egwalker.VersionSummary{
		{},
		{"alice": {{Start: 0, End: 100}}},
		{
			"alice": {{Start: 0, End: 3}, {Start: 7, End: 9}, {Start: 100, End: 4096}},
			"bob":   {{Start: 5, End: 6}},
			"":      {{Start: 0, End: 1}}, // empty agent name is legal
		},
	}
	for i, s := range cases {
		data := MarshalVersionSummary(s)
		got, err := UnmarshalVersionSummary(data)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(s) {
			t.Fatalf("case %d: round trip %v -> %v", i, s, got)
		}
		for agent, ranges := range s {
			if !reflect.DeepEqual(got[agent], ranges) {
				t.Fatalf("case %d agent %q: %v -> %v", i, agent, ranges, got[agent])
			}
		}
		// Deterministic: equal summaries encode to equal bytes.
		if again := MarshalVersionSummary(got); !bytes.Equal(again, data) {
			t.Fatalf("case %d: re-encode drifted: %x vs %x", i, again, data)
		}
	}
}

func TestUnmarshalVersionSummaryRejects(t *testing.T) {
	enc := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	withName := func(head []byte, name string, tail ...uint64) []byte {
		b := append(append([]byte(nil), head...), name...)
		return append(b, enc(tail...)...)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated count", nil},
		{"count over payload", enc(1 << 40)},
		{"name over cap", enc(1, maxAgentName+1)},
		{"zero ranges", withName(enc(1, 1), "a", 0)},
		{"range count over payload", withName(enc(1, 1), "a", 1<<40)},
		{"abutting ranges", withName(enc(1, 1), "a", 2, 0, 5, 0, 5)},
		{"empty range", withName(enc(1, 1), "a", 1, 0, 0)},
		{"seq over cap", withName(enc(1, 1), "a", 1, maxSeq, 1)},
		{"duplicate agent", withName(withName(enc(2, 1), "a", 1, 0, 5, 1), "a", 1, 0, 5)},
		{"trailing bytes", append(MarshalVersionSummary(egwalker.VersionSummary{"a": {{Start: 0, End: 5}}}), 0)},
	}
	for _, tc := range cases {
		if _, err := UnmarshalVersionSummary(tc.data); err == nil {
			t.Errorf("%s: accepted %x", tc.name, tc.data)
		}
	}
	// Every strict prefix of a valid encoding is a truncation.
	good := MarshalVersionSummary(egwalker.VersionSummary{
		"alice": {{Start: 0, End: 3}, {Start: 7, End: 9}},
		"bob":   {{Start: 2, End: 4}},
	})
	for i := 0; i < len(good); i++ {
		if _, err := UnmarshalVersionSummary(good[:i]); err == nil {
			t.Errorf("accepted truncation at %d/%d bytes", i, len(good))
		}
	}
}

// TestVersionDecodeRejectsHugeSeq pins the hostile-uvarint bounds where
// an unauthenticated peer reaches the summary decoder — the doc hello
// and the Sync hello: a 2^63 seq once wrapped negative through
// int(seq), poisoning every later comparison against it, and an agent
// name over the cap must not be read.
func TestVersionDecodeRejectsHugeSeq(t *testing.T) {
	hugeSeq := binary.AppendUvarint([]byte{1, 1, 'a', 1}, 1<<63)
	hugeSeq = binary.AppendUvarint(hugeSeq, 1)
	longName := binary.AppendUvarint([]byte{1}, maxAgentName+1)
	for _, tail := range [][]byte{hugeSeq, longName} {
		if h, err := ReadHello(bytes.NewReader(v2Frame(capCompact|helloSummary, "d", tail))); err == nil {
			t.Fatalf("doc hello accepted summary %x as %v", tail, h.Summary)
		}
		a, b := net.Pipe()
		go func() {
			bw := bufio.NewWriter(b)
			if writeFrame(bw, msgSummary, tail) == nil {
				bw.Flush()
			}
			readFrame(b) // the other side's summary
			b.Close()
		}()
		if err := Sync(egwalker.NewDoc("x"), a); err == nil || !strings.Contains(err.Error(), "bad version summary") {
			t.Fatalf("Sync on summary %x: err = %v, want a bad-summary refusal", tail, err)
		}
		a.Close()
	}
}

func TestHelloSummaryRoundTrip(t *testing.T) {
	sum := egwalker.VersionSummary{
		"alice": {{Start: 0, End: 100}},
		"bob":   {{Start: 0, End: 2}, {Start: 5, End: 9}},
	}
	cases := []Hello{
		{DocID: "d", Summary: sum, Compact: true},
		{DocID: "d", Summary: sum, Compact: true, Replica: true},
		{DocID: "d", Summary: sum, Compact: true, Redirect: true},
		{DocID: "d", Summary: egwalker.VersionSummary{}, Compact: true}, // cold join
	}
	for i, h := range cases {
		var buf bytes.Buffer
		if err := writeHello(&buf, h); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := ReadHello(&buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.DocID != h.DocID || got.Compact != h.Compact || got.Replica != h.Replica ||
			got.Redirect != h.Redirect {
			t.Fatalf("case %d: %+v -> %+v", i, h, got)
		}
		if got.Summary == nil || !reflect.DeepEqual(map[string][]egwalker.SeqRange(got.Summary), map[string][]egwalker.SeqRange(h.Summary)) {
			t.Fatalf("case %d: summary %v -> %v", i, h.Summary, got.Summary)
		}
		// Forward must preserve the summary for the proxy path.
		var fwd bytes.Buffer
		if err := got.Forward(&fwd); err != nil {
			t.Fatalf("case %d forward: %v", i, err)
		}
		again, err := ReadHello(&fwd)
		if err != nil {
			t.Fatalf("case %d re-read: %v", i, err)
		}
		if !reflect.DeepEqual(map[string][]egwalker.SeqRange(again.Summary), map[string][]egwalker.SeqRange(h.Summary)) {
			t.Fatalf("case %d: forwarded summary %v -> %v", i, h.Summary, again.Summary)
		}
	}
}

// FuzzVersionSummary: the decoder must never panic, must only accept
// canonical encodings (decode→encode→decode is a fixed point, and the
// re-encode reproduces the input bytes exactly), and everything it
// accepts must pass egwalker's structural Validate.
func FuzzVersionSummary(f *testing.F) {
	f.Add(MarshalVersionSummary(egwalker.VersionSummary{}))
	f.Add(MarshalVersionSummary(egwalker.VersionSummary{"alice": {{Start: 0, End: 100}}}))
	f.Add(MarshalVersionSummary(egwalker.VersionSummary{
		"alice": {{Start: 0, End: 3}, {Start: 7, End: 9}},
		"bob":   {{Start: 5, End: 6}},
	}))
	f.Add([]byte{2, 1, 'a', 1, 0, 5, 1, 'a', 1, 0, 5})          // duplicate agent
	f.Add([]byte{1, 1, 'a', 2, 0, 5, 0, 5})                     // abutting ranges
	f.Add(binary.AppendUvarint([]byte{1, 1, 'a', 1, 1}, 1<<62)) // huge seq
	f.Add(binary.AppendUvarint(nil, 1<<40))                     // hostile agent count

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalVersionSummary(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted summary failing Validate: %v (%v)", err, s)
		}
		enc := MarshalVersionSummary(s)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding: %x re-encodes as %x", data, enc)
		}
		s2, err := UnmarshalVersionSummary(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("decode fixed point broken: %v vs %v", s, s2)
		}
	})
}
