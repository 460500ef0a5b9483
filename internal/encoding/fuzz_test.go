package encoding

import (
	"testing"

	"egwalker/internal/core"
)

// FuzzDecode: Decode must never panic and, on inputs it accepts, must
// produce a log that replays without crashing. Run with
// `go test -fuzz FuzzDecode ./internal/encoding` for deep exploration;
// plain `go test` exercises the seed corpus: the EGW1 files the writer
// left, in all its modes.
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"plain.egw", "cached.egw", "compressed.egw", "pruned.egw", "pruned-cached-compressed.egw"} {
		f.Add(fixture(f, name))
	}
	f.Add([]byte{})
	f.Add([]byte("EGW1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted input: the log must be internally consistent enough
		// to replay or to fail replay with an error (never panic).
		_, _ = core.ReplayText(dec.Log)
	})
}
