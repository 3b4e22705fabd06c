package core

import (
	"fmt"
	"unsafe"
)

// TreeBytes returns a Tree's canonical byte representation without
// copying: a Handle is 32 plain bytes, so entries laid end to end already
// are the encoding. The result aliases entries and is read-only, the same
// contract as a stored Blob's bytes.
func TreeBytes(entries []Handle) []byte {
	if len(entries) == 0 {
		return []byte{} // empty but non-nil: nil reads as "no bytes" to callers
	}
	return unsafe.Slice(&entries[0][0], len(entries)*HandleSize)
}

// EncodeTree packs a Tree into a fresh copy of its canonical byte
// representation: the concatenation of its entries' 32-byte Handles. This
// is both the hashing preimage and the wire format; TreeBytes is the
// same bytes in place.
func EncodeTree(entries []Handle) []byte {
	out := make([]byte, len(entries)*HandleSize)
	copy(out, TreeBytes(entries))
	return out
}

// DecodeTree unpacks the canonical byte representation of a Tree into a
// fresh slice. Every entry is validated.
func DecodeTree(data []byte) ([]Handle, error) {
	view, err := TreeView(data)
	if err != nil {
		return nil, err
	}
	entries := make([]Handle, len(view))
	copy(entries, view)
	return entries, nil
}

// TreeView is DecodeTree in place, the inverse of TreeBytes: the entries
// alias data, which must stay unchanged while they are read. Every entry
// is validated.
func TreeView(data []byte) ([]Handle, error) {
	if len(data)%HandleSize != 0 {
		return nil, fmt.Errorf("core: tree encoding length %d not a multiple of %d", len(data), HandleSize)
	}
	entries := unsafe.Slice((*Handle)(unsafe.Pointer(unsafe.SliceData(data))), len(data)/HandleSize)
	for i := range entries {
		if err := entries[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: tree entry %d: %w", i, err)
		}
	}
	return entries, nil
}
