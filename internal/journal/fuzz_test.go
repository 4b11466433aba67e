package journal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadRun feeds arbitrary bytes to the journal reader behind pexplain.
// It must return an error rather than panic, and a run it accepts must take
// its header from the first non-empty line: a header record of a schema
// this reader understands. The committed corpus holds a real cm42a journal
// and the blank-line cases that once skipped the header check.
func FuzzReadRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first []byte
		for _, line := range bytes.Split(data, []byte("\n")) {
			if line = bytes.TrimSuffix(line, []byte("\r")); len(line) > 0 {
				first = line
				break
			}
		}
		var env envelope
		var h Header
		if json.Unmarshal(first, &env) != nil || env.Type != TypeHeader || json.Unmarshal(first, &h) != nil {
			t.Fatalf("accepted a run whose first non-empty line %q is not a header record", first)
		}
		if h.Schema > SchemaVersion || run.Header != h {
			t.Fatalf("accepted header %+v; the first non-empty line %q holds %+v (reader schema %d)",
				run.Header, first, h, SchemaVersion)
		}
	})
}
