package colenc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// FuzzColencRoundTrip attacks Decode with arbitrary bytes: it must
// never panic and must reject malformed input with a clean error. On
// input it accepts, decode → re-encode → decode must be a fixed point:
// the decoded events are by construction valid, so re-encoding cannot
// fail, and the second decode must reproduce them exactly. Every input
// also goes through the per-unit reference codec (ref_test.go): the run
// decoder must accept exactly the frames it accepts and expand to its
// events, and the run encoder must write its bytes. Run with
// `go test -fuzz FuzzColencRoundTrip ./internal/colenc` for deep
// exploration; plain `go test` exercises the committed corpus.
func FuzzColencRoundTrip(f *testing.F) {
	// Valid frames in every shape: typing, deletes, concurrency,
	// external parents, cached doc, compression.
	batches := [][]Event{
		nil,
		typed("alice", "hello fuzz"),
		{
			{ID: ID{"a", 0}, Insert: true, Pos: 0, Content: 'x'},
			{ID: ID{"b", 0}, Insert: true, Pos: 0, Content: 'é'},
			{ID: ID{"a", 1}, Parents: []ID{{"a", 0}, {"b", 0}}, Pos: 1},
			{ID: ID{"a", 2}, Parents: []ID{{"a", 1}}, Pos: 0},
		},
		{
			{ID: ID{"c", 9}, Parents: []ID{{"x", 41}}, Insert: true, Pos: 3, Content: '漢'},
			{ID: ID{"c", 10}, Parents: []ID{{"c", 9}}, Insert: true, Pos: 4, Content: '🙂'},
		},
	}
	for _, evs := range batches {
		if data, err := Encode(evs, Options{}); err == nil {
			f.Add(data)
		}
		if data, err := Encode(evs, Options{Compress: true}); err == nil {
			f.Add(data)
		}
		if data, err := EncodeRunsDoc(Runs(evs), "cached doc text", Options{}); err == nil {
			f.Add(data)
		}
	}
	// A frame of 11 events whose header claims 2^31 and one that claims
	// the most its size allows (a delete run may be that long): what the
	// decoder reserves must come from the runs it has decoded.
	if data, err := Encode(typed("alice", "hello world"), Options{}); err == nil {
		f.Add(claim(data, 1<<31))
		f.Add(claim(data, uint64(len(data)-9)<<16))
	}
	f.Add([]byte{})
	f.Add([]byte("EGC2"))
	f.Add(append([]byte("EGC2"), make([]byte, 32)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The limit bounds the fuzzer's memory: run-length frames can
		// legitimately describe far more events than they have bytes.
		dec, err := DecodeLimit(data, 1<<16)
		ref, refErr := refDecodeLimit(data, 1<<16)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("run decoder: %v; per-unit decoder: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if len(dec.Events) != len(ref.Events) || dec.HasDoc != ref.HasDoc || dec.Doc != ref.Doc {
			t.Fatalf("run decoder: %d events, doc %v; per-unit decoder: %d events, doc %v", len(dec.Events), dec.HasDoc, len(ref.Events), ref.HasDoc)
		}
		for i := range ref.Events {
			if !reflect.DeepEqual(dec.Events[i], ref.Events[i]) {
				t.Fatalf("event %d: run decoder %+v, per-unit decoder %+v", i, dec.Events[i], ref.Events[i])
			}
		}
		runs, err := DecodeRuns(data, 1<<16)
		if err != nil {
			t.Fatalf("DecodeRuns after Decode accepted: %v", err)
		}
		fromRuns, err := encodeRuns(slices.Values(runs.Runs), runs.Doc, runs.HasDoc, Options{})
		if err != nil {
			t.Fatalf("re-encode of decoded runs failed: %v", err)
		}
		refBytes, err := refEncode(ref.Events, ref.Doc, ref.HasDoc, Options{})
		if err != nil {
			t.Fatalf("per-unit re-encode failed: %v", err)
		}
		if !bytes.Equal(fromRuns, refBytes) {
			t.Fatalf("EncodeRuns wrote %d bytes, the per-unit encoder %d", len(fromRuns), len(refBytes))
		}
		var re []byte
		if dec.HasDoc {
			re, err = EncodeRunsDoc(Runs(dec.Events), dec.Doc, Options{})
		} else {
			re, err = Encode(dec.Events, Options{})
		}
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		if !bytes.Equal(re, refBytes) {
			t.Fatalf("Encode wrote %d bytes, the per-unit encoder %d", len(re), len(refBytes))
		}
		dec2, err := DecodeLimit(re, 1<<16)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if len(dec.Events) != len(dec2.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(dec.Events), len(dec2.Events))
		}
		for i := range dec.Events {
			if !reflect.DeepEqual(dec.Events[i], dec2.Events[i]) {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, dec.Events[i], dec2.Events[i])
			}
		}
		if dec2.HasDoc != dec.HasDoc || dec2.Doc != dec.Doc {
			t.Fatalf("round trip changed doc column")
		}
	})
}

// FuzzInspect holds Inspect to the full decoder, both on one reused
// Decoder: Inspect may accept a frame DecodeRuns rejects (it does not
// parse the ops and content columns), never the reverse, and where both
// accept they describe the same batch — the same event IDs in the same
// order; Inspect's external parents in order among the decoded parents;
// and every decoded parent that is not an event of the frame among
// Inspect's external parents (such a parent has no other encoding).
func FuzzInspect(f *testing.F) {
	for _, frame := range testFrames(f) {
		f.Add(frame)
	}
	for _, frame := range burstFrames(f, 4) {
		f.Add(frame)
	}
	f.Add([]byte("EGC2"))
	d := new(Decoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, ierr := d.Inspect(data)
		var runs []IDRun
		var ext []ID
		if ierr == nil {
			runs, ext = slices.Clone(info.Runs), slices.Clone(info.ExternalParents)
			if fresh, err := Inspect(data); err != nil || !sameInfo(fresh, info) {
				t.Fatalf("reused Inspect %+v, fresh Inspect %+v (%v)", info, fresh, err)
			}
		}
		numEvents, hasDoc := 0, false
		if ierr == nil {
			numEvents, hasDoc = info.NumEvents, info.HasDoc
		}
		dec, derr := d.DecodeRuns(data, 1<<16)
		if derr != nil {
			return
		}
		if ierr != nil {
			t.Fatalf("DecodeRuns accepted a frame Inspect rejects: %v", ierr)
		}
		if dec.NumEvents != numEvents || dec.HasDoc != hasDoc {
			t.Fatalf("Inspect: %d events, doc %v; DecodeRuns: %d events, doc %v", numEvents, hasDoc, dec.NumEvents, dec.HasDoc)
		}
		// The same IDs in the same order, however either side cuts them.
		coalesce := func(in []IDRun) []IDRun {
			var out []IDRun
			for _, r := range in {
				if k := len(out) - 1; k >= 0 && out[k].Agent == r.Agent && out[k].Seq+out[k].Len == r.Seq {
					out[k].Len += r.Len
				} else {
					out = append(out, r)
				}
			}
			return out
		}
		var decoded []IDRun
		for _, r := range dec.Runs {
			decoded = append(decoded, IDRun{Agent: r.ID.Agent, Seq: r.ID.Seq, Len: r.Len})
		}
		if !reflect.DeepEqual(coalesce(runs), coalesce(decoded)) {
			t.Fatalf("Inspect runs %+v, DecodeRuns runs %+v", coalesce(runs), coalesce(decoded))
		}
		inFrame := func(p ID) bool {
			for _, r := range runs {
				if r.Agent == p.Agent && p.Seq >= r.Seq && p.Seq < r.Seq+r.Len {
					return true
				}
			}
			return false
		}
		next := 0
		for _, r := range dec.Runs {
			for _, p := range r.Parents {
				if next < len(ext) && ext[next] == p {
					next++
				} else if !inFrame(p) {
					t.Fatalf("parent %+v of %+v is outside the frame and not among Inspect's external parents %+v (matched %d)", p, r.ID, ext, next)
				}
			}
		}
		if next != len(ext) {
			t.Fatalf("Inspect's external parents %+v are not, in order, among the decoded parents (matched %d)", ext, next)
		}
	})
}

// claim returns frame with the event count in its header replaced and the
// checksum redone.
func claim(frame []byte, count uint64) []byte {
	_, n := binary.Uvarint(frame[9:])
	out := append([]byte(nil), frame[:9]...)
	out = binary.AppendUvarint(out, count)
	out = append(out, frame[9+n:]...)
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(out[9:], crcTable))
	return out
}

// TestDecodeRunsHugeClaim: a small frame that claims 2^31 events, or the
// most DecodeRuns lets a frame of its size claim, is rejected before
// anything is sized by the claim.
func TestDecodeRunsHugeClaim(t *testing.T) {
	data, err := Encode(typed("alice", "hello world"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{1 << 31, uint64(len(data)-9) << 16, 12} {
		frame := claim(data, count)
		if len(frame) >= 100 {
			t.Fatalf("frame is %d bytes", len(frame))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := DecodeRuns(frame, math.MaxInt32)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("a frame of 11 events claiming %d decoded", count)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
			t.Errorf("rejecting a claim of %d events allocated %d bytes; want under 64 KB", count, got)
		}
	}
}
