package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// FuzzDecodeTree: DecodeTree never panics, and on accepted input the
// decoded entries lie in memory exactly as the input bytes did, so the
// handle TreeHandle computes from them in place is the digest of the input
// itself.
func FuzzDecodeTree(f *testing.F) {
	blob := BlobHandle(bytes.Repeat([]byte{5}, 500))
	tree := TreeHandle([]Handle{LiteralU64(1)})
	thunk, _ := Application(tree)
	enc, _ := Strict(thunk)
	for _, entries := range [][]Handle{
		nil,
		{LiteralU64(1)},
		{DefaultLimits.Handle(), BlobHandle(NativeFunctionBlob("add")), LiteralU64(40), LiteralU64(2)},
		{blob, tree, thunk, enc, blob.AsRef()},
	} {
		raw := EncodeTree(entries)
		f.Add(raw)
		if len(raw) > 0 {
			f.Add(raw[:len(raw)-1])
			bad := bytes.Clone(raw)
			bad[flagsByte] |= flagReservedBit
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeTree(data)
		if err != nil {
			return
		}
		if !bytes.Equal(TreeBytes(entries), data) {
			t.Fatalf("decoded entries lie as %x, input was %x", TreeBytes(entries), data)
		}
		if got, want := TreeHandle(entries), treeHandleOf(data); got != want {
			t.Fatalf("TreeHandle = %v, want %v from the input bytes", got, want)
		}
	})
}

// treeHandleOf is the Tree handle of an encoding, computed from the bytes
// alone: the domain-tagged SHA-256 truncated to 192 bits, the entry count,
// and the Tree flag.
func treeHandleOf(data []byte) Handle {
	sum := sha256.Sum256(append([]byte{domainTree}, data...))
	var h Handle
	copy(h[:24], sum[:])
	var size [8]byte
	binary.LittleEndian.PutUint64(size[:], uint64(len(data)/HandleSize))
	copy(h[24:30], size[:6])
	h[flagsByte] = flagKindTree
	return h
}
