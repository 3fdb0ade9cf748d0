package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sdssort/internal/codec"
)

// FuzzManifest drives DecodeManifest with arbitrary bytes. Whatever the
// input, the decoder must either reject it or produce a manifest that
// re-encodes to exactly the input — the codec has one canonical form,
// so decode∘encode must be the identity on accepted inputs. To give the
// fuzzer a foothold past the magic/checksum, the corpus seeds valid
// encodings and the target also mutates a known-good manifest's fields
// through a round trip.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(nil))
	f.Add((&Manifest{Phase: PhaseLocalSort}).Encode())
	f.Add((&Manifest{
		Epoch: 3, Phase: PhasePartition, Rank: 12, Records: 1 << 30,
		RecordSize: 16, Checksum: 0xdeadbeef, Merged: true, Leader: true,
		Bounds: []int64{0, 4, 4, 10},
	}).Encode())
	f.Add((&Manifest{Epoch: 1, Phase: PhaseFinal, Rank: 1, Leader: true}).Encode())

	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeManifest(buf)
		if err != nil {
			return
		}
		if m.Records < 0 {
			t.Fatalf("accepted negative record count %d", m.Records)
		}
		if m.Records > 0 && m.RecordSize <= 0 {
			t.Fatalf("accepted %d records with record size %d", m.Records, m.RecordSize)
		}
		if m.Phase != PhaseLocalSort && m.Phase != PhasePartition && m.Phase != PhaseFinal {
			t.Fatalf("accepted phase %d", m.Phase)
		}
		re := m.Encode()
		if !bytes.Equal(re, buf) {
			t.Fatalf("decode/encode not identity:\n in  %x\n out %x", buf, re)
		}
		if _, err := DecodeManifest(re); err != nil {
			t.Fatalf("re-decode of canonical form failed: %v", err)
		}
	})
}

// FuzzLoad drives Load with a manifest and a data file built from the
// fuzzer's values: a record count, a record width, a checksum off the
// data's by sumXor, and the data bytes. When the two agree — the file
// holds exactly the manifest's records of the codec's width and their
// checksum — Load must return those records; otherwise it must fail
// with ErrCorrupt. Either way it must never allocate more than the file
// holds: a manifest claiming 2⁴⁰ records over a few bytes is refused
// before any slice is sized from it.
func FuzzLoad(f *testing.F) {
	eight := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	f.Add(int64(1)<<40, uint32(8), uint64(0), eight)
	f.Add(int64(8), uint32(8), uint64(0), eight)
	f.Add(int64(8), uint32(8), uint64(1), eight)
	f.Add(int64(7), uint32(8), uint64(0), eight)
	f.Add(int64(16), uint32(4), uint64(0), eight)
	f.Add(int64(1)<<61, uint32(8), uint64(0), []byte{})
	f.Add(int64(0), uint32(0), uint64(0), []byte{})
	f.Add(int64(0), uint32(8), uint64(0), []byte{9})
	cd := codec.Float64{}
	s, err := NewStore(f.TempDir(), 1)
	if err != nil {
		f.Fatal(err)
	}
	mpath, dpath := s.ManifestPath(0, PhaseLocalSort, 0), s.DataPath(0, PhaseLocalSort, 0)
	if err := os.MkdirAll(filepath.Dir(mpath), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, records int64, recSize uint32, sumXor uint64, data []byte) {
		m := Manifest{Phase: PhaseLocalSort, World: 1, Records: records, RecordSize: int(recSize),
			Checksum: uint64(crc32.Checksum(data, dataTable)) ^ sumXor}
		if err := os.WriteFile(mpath, m.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		size := int64(len(data))
		agree := sumXor == 0 && (records == 0 && size == 0 ||
			records > 0 && recSize == 8 && size%8 == 0 && size/8 == records)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, recs, err := Load(s, 0, PhaseLocalSort, 0, cd)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(size)+64<<10 {
			t.Fatalf("loading a %d-byte file that claims %d records allocated %d bytes", size, records, grew)
		}
		switch {
		case agree && err != nil:
			t.Fatalf("%d records of %d bytes in a %d-byte file refused: %v", records, recSize, size, err)
		case agree && !bytes.Equal(codec.EncodeSlice(cd, nil, recs), data):
			t.Fatalf("%d records of %d bytes loaded as %d other records", records, recSize, len(recs))
		case !agree && !errors.Is(err, ErrCorrupt):
			t.Fatalf("manifest of %d records of %d bytes (checksum off by %#x) over a %d-byte file: err %v, want ErrCorrupt",
				records, recSize, sumXor, size, err)
		}
	})
}
