package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"lvf2/internal/faultinject"
)

// segment encodes recs as one sealed segment of testFP.
func segment(version uint32, recs ...Record) []byte {
	b := []byte(journalMagic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint64(b, testFP.hash())
	for _, rec := range recs {
		b = appendRecord(b, rec)
	}
	return b
}

// FuzzJournalSegment replays arbitrary bytes as the newest segment of a
// journal, where a torn tail is tolerated, and as a middle segment,
// where it is not. Open must never panic and may fail only with
// ErrCorruptJournal. The records a segment replays must re-encode to
// exactly the bytes their checksums cover, in order from the header on:
// replay may drop a torn tail but never reinterprets a record.
func FuzzJournalSegment(f *testing.F) {
	done := Record{Key: testKey(1), Status: StatusDone, Payload: []byte("fit")}
	quar := Record{Key: testKey(2), Status: StatusQuarantined, Rung: "gaussian", Note: QuarantineNote("poison"), Payload: []byte{9}}
	valid := segment(JournalVersion, done, quar)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(segment(JournalVersion))
	f.Add(segment(1, done))
	f.Add([]byte(journalMagic))
	f.Add([]byte{})

	anchor := segment(JournalVersion, Record{Key: testKey(0), Status: StatusDone, Payload: []byte("anchor")})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, last := range []bool{true, false} {
			fsys := faultinject.NewMemFS()
			fsys.WriteFile(filepath.Join("ckpt", segName(0)), anchor)
			fsys.WriteFile(filepath.Join("ckpt", segName(1)), b)
			if !last {
				fsys.WriteFile(filepath.Join("ckpt", segName(2)), anchor)
			}
			j, err := Open(fsys, "ckpt", testFP, Options{})
			if err != nil {
				if !errors.Is(err, ErrCorruptJournal) {
					t.Fatalf("last=%v: Open = %v, want nil or ErrCorruptJournal", last, err)
				}
				continue
			}
			if _, ok := j.Lookup(testKey(0)); !ok {
				t.Fatalf("last=%v: the anchor segment's record was lost", last)
			}
			recs, _, err := decodeSegment(b, testFP.hash(), last)
			if err != nil {
				t.Fatalf("last=%v: Open accepted a segment decodeSegment refuses: %v", last, err)
			}
			enc := append([]byte(nil), b[:min(len(b), segHeaderLen)]...)
			for _, rec := range recs {
				enc = appendRecord(enc, rec)
			}
			if !bytes.HasPrefix(b, enc) || (!last && len(enc) != len(b)) {
				t.Fatalf("last=%v: %d replayed records re-encode to %d bytes that are not the segment's %d-byte valid prefix",
					last, len(recs), len(enc), len(b))
			}
		}
	})
}
