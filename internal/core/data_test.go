package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestTreeEncodeDecodeRoundTrip(t *testing.T) {
	entries := []Handle{
		BlobHandle([]byte("short")),
		TreeHandle(nil),
		LiteralU64(12345),
	}
	th, _ := Application(TreeHandle(entries))
	entries = append(entries, th)
	enc := EncodeTree(entries)
	if len(enc) != len(entries)*HandleSize {
		t.Fatalf("encoded length = %d", len(enc))
	}
	dec, err := DecodeTree(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(dec), len(entries))
	}
	for i := range dec {
		if dec[i] != entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestDecodeTreeBadLength(t *testing.T) {
	if _, err := DecodeTree(make([]byte, 33)); err == nil {
		t.Fatal("expected error for ragged tree bytes")
	}
}

func TestDecodeTreeRejectsInvalidEntry(t *testing.T) {
	h := BlobHandle([]byte("x"))
	h[flagsByte] |= flagReservedBit
	if _, err := DecodeTree(h[:]); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTreeHandleDependsOnOrder(t *testing.T) {
	a, b := LiteralU64(1), LiteralU64(2)
	if TreeHandle([]Handle{a, b}) == TreeHandle([]Handle{b, a}) {
		t.Fatal("tree handle must depend on entry order")
	}
}

// Property: EncodeTree/DecodeTree round-trip over random valid handles.
func TestTreeRoundTripProperty(t *testing.T) {
	f := func(blobs [][]byte) bool {
		entries := make([]Handle, len(blobs))
		for i, b := range blobs {
			entries[i] = BlobHandle(b)
		}
		dec, err := DecodeTree(EncodeTree(entries))
		if err != nil || len(dec) != len(entries) {
			return false
		}
		for i := range dec {
			if dec[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeBytesAliasesEntries: TreeBytes is EncodeTree's bytes without the
// copy, and EncodeTree still hands out memory of its own.
func TestTreeBytesAliasesEntries(t *testing.T) {
	entries := []Handle{BlobHandle([]byte("hello world, this is a blob")), LiteralU64(7)}
	view := TreeBytes(entries)
	if !bytes.Equal(view, EncodeTree(entries)) || len(view) != 2*HandleSize {
		t.Fatalf("TreeBytes = %x, want EncodeTree's %d bytes", view, 2*HandleSize)
	}
	if &view[HandleSize] != &entries[1][0] {
		t.Fatal("TreeBytes copied the entries")
	}
	enc := EncodeTree(entries)
	enc[0] ^= 0xff
	if enc[0] == entries[0][0] {
		t.Fatal("EncodeTree aliases the entries")
	}
	if TreeBytes(nil) == nil || len(TreeBytes(nil)) != 0 || len(EncodeTree(nil)) != 0 {
		t.Fatal("the empty tree encodes to no bytes")
	}
}

// TestLiteralViewInPlace: LiteralView reads the same bytes LiteralData
// copies, from inside the handle, and nothing from a digest handle.
func TestLiteralViewInPlace(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{9}, MaxLiteral)} {
		h := BlobHandle(data)
		v := h.LiteralView()
		if !bytes.Equal(v, h.LiteralData()) || len(v) != len(data) {
			t.Fatalf("LiteralView = %x, want %x", v, data)
		}
		if len(v) > 0 && &v[0] != &h[0] {
			t.Fatal("LiteralView copied the handle")
		}
	}
	big := BlobHandle(bytes.Repeat([]byte{9}, MaxLiteral+1))
	if big.LiteralView() != nil {
		t.Fatal("a digest handle has no literal view")
	}
}

// TestAllocsHandles pins hashing (ROADMAP 2 Part D): a Tree is hashed
// where it lies and the digest sums on the stack. A Handle's text form
// appends into the caller's buffer.
func TestAllocsHandles(t *testing.T) {
	entries := make([]Handle, 16)
	for i := range entries {
		entries[i] = LiteralU64(uint64(i))
	}
	blob := bytes.Repeat([]byte{7}, 4096)
	lim := DefaultLimits.Handle()
	text := make([]byte, 0, 2*HandleSize)
	for name, f := range map[string]func(){
		"TreeHandle":         func() { sinkHandle = TreeHandle(entries) },
		"BlobHandle":         func() { sinkHandle = BlobHandle(blob) },
		"LiteralView":        func() { _, _ = DecodeLimits(lim.LiteralView()) },
		"NativeFunctionName": func() { _, _ = NativeFunctionName(blob) },
		"AppendHandle":       func() { text = AppendHandle(text[:0], lim) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", name, allocs)
		}
	}
}
