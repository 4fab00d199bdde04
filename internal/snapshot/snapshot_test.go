package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"
)

func encode(t *testing.T, fill func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encode(t, func(w *Writer) {
		w.U8(7)
		w.Bool(true)
		w.U32(1 << 20)
		w.I64(-5)
		w.F64(0.25)
		w.String("wave")
		w.U32(3) // a count
	})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 7 || !r.Bool() || r.U32() != 1<<20 || r.I64() != -5 || r.F64() != 0.25 || r.String() != "wave" {
		t.Fatal("fields did not round-trip")
	}
	if n := r.Count(10); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v", n, r.Err())
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCountBoundedByInput checks that a count larger than the bytes left
// fails at once, so a corrupted length cannot drive a decode loop past the
// end of the input.
func TestCountBoundedByInput(t *testing.T) {
	data := encode(t, func(w *Writer) { w.U32(1 << 25) })
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(1 << 26); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible") {
		t.Fatalf("Count = %d, err %v; want 0 and an implausible-count error", n, r.Err())
	}
	if r.U64() != 0 || r.Close() == nil {
		t.Fatal("reader not sticky after the error")
	}
}

func TestCloseRejectsCorruption(t *testing.T) {
	data := encode(t, func(w *Writer) { w.I64(42) })
	flipped := bytes.Clone(data)
	flipped[len(flipped)-sha256.Size-1] ^= 1
	r, err := NewReader(bytes.NewReader(flipped))
	if err != nil {
		t.Fatal(err)
	}
	r.I64()
	if err := r.Close(); !errors.Is(err, ErrDigest) {
		t.Fatalf("Close on a flipped payload = %v, want ErrDigest", err)
	}

	r, err = NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	r.I64()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted a truncated digest")
	}

	if _, err := NewReader(bytes.NewReader([]byte("NOTASNAP\x02\x00\x00\x00"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}
