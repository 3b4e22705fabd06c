package core

import (
	"crypto/sha256"
	"hash"
)

// BlobHasher computes a Blob's Object Handle incrementally, so a streamed
// upload can be hashed chunk by chunk without buffering the whole body.
// The zero value is not usable; call NewBlobHasher. Write the payload in
// any chunking, then call Handle: the result is identical to
// BlobHandle(payload), including the literal case for payloads of at
// most MaxLiteral bytes.
type BlobHasher struct {
	h      hash.Hash
	n      uint64
	prefix [MaxLiteral]byte // first MaxLiteral bytes, for the literal case
}

// NewBlobHasher returns a hasher primed with the Blob domain tag.
func NewBlobHasher() *BlobHasher {
	bh := &BlobHasher{h: sha256.New()}
	bh.h.Write([]byte{domainBlob})
	return bh
}

// Write absorbs the next chunk of the payload. It never fails.
func (bh *BlobHasher) Write(p []byte) (int, error) {
	if bh.n < MaxLiteral {
		copy(bh.prefix[bh.n:], p)
	}
	bh.h.Write(p)
	bh.n += uint64(len(p))
	return len(p), nil
}

// Handle returns the Object Handle of the absorbed payload. The hasher
// remains usable: further Writes extend the payload.
func (bh *BlobHasher) Handle() Handle {
	var h Handle
	if bh.n <= MaxLiteral {
		copy(h[:MaxLiteral], bh.prefix[:bh.n])
		h[auxByte] = byte(bh.n)
		h[flagsByte] = flagLiteral
		return h
	}
	sum := bh.h.Sum(nil)
	copy(h[:24], sum)
	putSize(&h, bh.n)
	h[flagsByte] = 0
	return h
}
