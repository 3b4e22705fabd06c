package core

import (
	"bytes"
	"testing"
)

// TestBlobHasherMatchesBlobHandle pins the streaming hasher's contract:
// for any payload, feeding it through a BlobHasher in arbitrary write
// splits yields exactly the Handle BlobHandle computes in one shot —
// including the literal inlining below MaxLiteral+1 bytes.
func TestBlobHasherMatchesBlobHandle(t *testing.T) {
	sizes := []int{0, 1, MaxLiteral - 1, MaxLiteral, MaxLiteral + 1, 64, 1000, 64 << 10}
	for _, size := range sizes {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		want := BlobHandle(data)

		// One-shot write.
		h := NewBlobHasher()
		h.Write(data)
		if got := h.Handle(); got != want {
			t.Errorf("size %d one-shot: hasher handle %v != BlobHandle %v", size, got, want)
		}
		if h.n != uint64(size) {
			t.Errorf("size %d: hasher absorbed %d bytes", size, h.n)
		}

		// Byte-at-a-time and uneven chunk splits must agree too.
		for _, chunk := range []int{1, 3, 17, 4096} {
			h := NewBlobHasher()
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				n, err := h.Write(data[off:end])
				if err != nil || n != end-off {
					t.Fatalf("size %d chunk %d: Write = (%d, %v)", size, chunk, n, err)
				}
			}
			if got := h.Handle(); got != want {
				t.Errorf("size %d chunk %d: hasher handle %v != BlobHandle %v", size, chunk, got, want)
			}
		}
	}
}

// TestBlobHasherLiteralData checks the literal path preserves payload
// bytes, not just the digest shape.
func TestBlobHasherLiteralData(t *testing.T) {
	payload := []byte("tiny literal")
	h := NewBlobHasher()
	h.Write(payload[:5])
	h.Write(payload[5:])
	got := h.Handle()
	if !got.IsLiteral() {
		t.Fatalf("%d-byte payload did not produce a literal handle", len(payload))
	}
	if !bytes.Equal(got.LiteralData(), payload) {
		t.Errorf("literal data = %q, want %q", got.LiteralData(), payload)
	}
}
