package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
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

// FuzzParseHandle: ParseHandle never panics, accepts nothing Validate
// rejects, and on accepted input is the inverse of FormatHandle both ways,
// so a Handle has exactly one text form. ParseHandleBytes agrees with it
// on every input, errors included, and AppendHandle writes FormatHandle's
// digits.
func FuzzParseHandle(f *testing.F) {
	tree := TreeHandle([]Handle{LiteralU64(1)})
	thunk, _ := Application(tree)
	enc, _ := Shallow(thunk)
	reserved := LiteralU64(3)
	reserved[flagsByte] |= flagReservedBit
	for _, h := range []Handle{{}, LiteralU64(3), reserved, BlobHandle(bytes.Repeat([]byte{5}, 500)), tree.AsRef(), thunk, enc} {
		s := FormatHandle(h)
		f.Add(s)
		f.Add(s[1:])
		f.Add(strings.ToUpper(s))
	}
	f.Fuzz(func(t *testing.T, s string) {
		h, err := ParseHandle(s)
		hb, errb := ParseHandleBytes([]byte(s))
		if hb != h || fmt.Sprint(errb) != fmt.Sprint(err) {
			t.Fatalf("ParseHandleBytes(%q) = %v, %v; ParseHandle = %v, %v", s, hb, errb, h, err)
		}
		if err != nil {
			return
		}
		if got := string(AppendHandle([]byte("x"), h)); got != "x"+s {
			t.Fatalf("AppendHandle(%v) = %q", h, got)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("ParseHandle(%q) accepted a handle Validate rejects: %v", s, err)
		}
		if FormatHandle(h) != s {
			t.Fatalf("FormatHandle(ParseHandle(%q)) = %q", s, FormatHandle(h))
		}
		if back, err := ParseHandle(FormatHandle(h)); err != nil || back != h {
			t.Fatalf("ParseHandle(FormatHandle(%v)) = %v, %v", h, back, err)
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
