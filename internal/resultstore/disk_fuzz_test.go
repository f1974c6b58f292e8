package resultstore

import (
	"bytes"
	"testing"
)

// FuzzDecodeDiskRecord holds the disk record framing to its contract on
// arbitrary bytes: decodeDiskRecord never panics, and every record it
// accepts is exactly what encodeDiskRecord writes for the payload it
// returns. Seeds (testdata/fuzz) cover a valid record, a truncated one, a
// flipped payload byte, a wrong version, an empty file and a length field
// that disagrees with the file size.
func FuzzDecodeDiskRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, rec []byte) {
		payload, err := decodeDiskRecord(rec)
		if err != nil {
			if payload != nil {
				t.Fatalf("rejected record (%v) returned a payload", err)
			}
			return
		}
		if re := encodeDiskRecord(payload); !bytes.Equal(re, rec) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", rec, re)
		}
	})
}
