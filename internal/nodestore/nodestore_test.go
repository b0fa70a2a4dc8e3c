package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ripplestudy/internal/ledger"
)

func rec(i int) (ledger.Hash, []byte) {
	payload := binary.BigEndian.AppendUint64(nil, uint64(i))
	payload = append(payload, bytes.Repeat([]byte{byte(i)}, i%13)...)
	return ledger.SHA512Half(payload), payload
}

func TestMemStoreIdempotentPut(t *testing.T) {
	s := NewMem()
	h, payload := rec(7)
	if err := s.Put(h, payload); err != nil {
		t.Fatal(err)
	}
	// Second put of the same hash must be a no-op, and the store must not
	// alias the caller's buffer.
	scratch := append([]byte(nil), payload...)
	if err := s.Put(h, scratch); err != nil {
		t.Fatal(err)
	}
	scratch[0] ^= 0xff
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, err := s.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %x, want %x", got, payload)
	}
	if _, err := s.Get(ledger.Hash{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: err = %v, want ErrNotFound", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	const n = 20
	for i := 0; i < n; i++ {
		h, payload := rec(i)
		buf = AppendRecord(buf, h, payload)
	}
	rest := buf
	for i := 0; i < n; i++ {
		wantH, wantPayload := rec(i)
		h, payload, next, err := DecodeRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if h != wantH || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("record %d: decoded (%s, %x)", i, h.Short(), payload)
		}
		if err := VerifyRecord(h, payload); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestDecodeRecordRejectsDamage(t *testing.T) {
	h, payload := rec(3)
	good := AppendRecord(nil, h, payload)

	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x01
		if _, _, _, err := DecodeRecord(bad); err == nil {
			// Flipping a length byte can still frame a valid-looking record
			// only if the CRC happens to match — it never does for a single
			// bit flip over this frame.
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if _, _, _, err := DecodeRecord(good[:len(good)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	huge := binary.BigEndian.AppendUint32(nil, MaxPayload+1)
	huge = append(huge, make([]byte, 64)...)
	if _, _, _, err := DecodeRecord(huge); err == nil {
		t.Fatal("oversized length accepted")
	}
	if err := VerifyRecord(ledger.Hash{1}, payload); err == nil {
		t.Fatal("wrong hash passed VerifyRecord")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.nodes")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		h, payload := rec(i)
		if err := fw.Put(h, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate puts are skipped.
	h0, p0 := rec(0)
	if err := fw.Put(h0, p0); err != nil {
		t.Fatal(err)
	}
	if fw.Len() != n {
		t.Fatalf("writer Len = %d, want %d", fw.Len(), n)
	}
	wantBytes := fw.Bytes()
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != wantBytes {
		t.Fatalf("file size %v (err %v), writer reported %d", fi.Size(), err, wantBytes)
	}

	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != n {
		t.Fatalf("store Len = %d, want %d", fs.Len(), n)
	}
	for i := 0; i < n; i++ {
		h, payload := rec(i)
		got, err := fs.Get(h)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d: got %x", i, got)
		}
	}
	if _, err := fs.Get(ledger.Hash{0xAA}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: err = %v, want ErrNotFound", err)
	}

	// CreateFile refuses to overwrite an existing batch.
	if _, err := CreateFile(path); err == nil {
		t.Fatal("CreateFile overwrote an existing file")
	}
}

func TestOpenFileRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.nodes")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h, payload := rec(i)
		if err := fw.Put(h, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "flip.nodes")
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("OpenFile accepted a corrupt record")
	}

	torn := filepath.Join(t.TempDir(), "torn.nodes")
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(torn); err == nil {
		t.Fatal("OpenFile accepted a torn file")
	}
}

func TestLayeredUnion(t *testing.T) {
	a, b := NewMem(), NewMem()
	ha, pa := rec(1)
	hb, pb := rec(2)
	hBoth, pBoth := rec(3)
	for _, put := range []struct {
		s *MemStore
		h ledger.Hash
		p []byte
	}{{a, ha, pa}, {b, hb, pb}, {a, hBoth, pBoth}, {b, hBoth, pBoth}} {
		if err := put.s.Put(put.h, put.p); err != nil {
			t.Fatal(err)
		}
	}
	l := Layered{a, b}
	for _, want := range []struct {
		h ledger.Hash
		p []byte
	}{{ha, pa}, {hb, pb}, {hBoth, pBoth}} {
		got, err := l.Get(want.h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.p) {
			t.Fatalf("Get(%s) = %x", want.h.Short(), got)
		}
	}
	if _, err := l.Get(ledger.Hash{9}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: err = %v, want ErrNotFound", err)
	}
}

type errGetter struct{ err error }

func (g errGetter) Get(ledger.Hash) ([]byte, error) { return nil, g.err }

func TestLayeredAbortsOnRealError(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	tail := NewMem()
	h, p := rec(4)
	if err := tail.Put(h, p); err != nil {
		t.Fatal(err)
	}
	l := Layered{errGetter{boom}, tail}
	if _, err := l.Get(h); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the layer's error", err)
	}
}

// FuzzNodeDecode feeds arbitrary bytes through the record decoder: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to the identical frame.
func FuzzNodeDecode(f *testing.F) {
	h, payload := rec(5)
	f.Add(AppendRecord(nil, h, payload))
	f.Add([]byte{})
	f.Add(make([]byte, recordHeader+recordTrailer))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxPayload+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			h, payload, next, err := DecodeRecord(rest)
			if err != nil {
				break
			}
			consumed := rest[:len(rest)-len(next)]
			if got := AppendRecord(nil, h, payload); !bytes.Equal(got, consumed) {
				t.Fatalf("re-encode mismatch: %x vs %x", got, consumed)
			}
			if len(next) >= len(rest) {
				t.Fatal("decoder did not consume input")
			}
			rest = next
		}
	})
}
