package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLiteralBlobRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		[]byte("hi"),
		bytes.Repeat([]byte{0xab}, MaxLiteral),
	}
	for _, data := range cases {
		h := BlobHandle(data)
		if !h.IsLiteral() {
			t.Fatalf("BlobHandle(%d bytes) not literal", len(data))
		}
		if h.Size() != uint64(len(data)) {
			t.Fatalf("size = %d, want %d", h.Size(), len(data))
		}
		if got := h.LiteralData(); !bytes.Equal(got, data) && !(len(data) == 0 && len(got) == 0) {
			t.Fatalf("LiteralData = %x, want %x", got, data)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
}

func TestLargeBlobHashed(t *testing.T) {
	data := bytes.Repeat([]byte{1}, MaxLiteral+1)
	h := BlobHandle(data)
	if h.IsLiteral() {
		t.Fatal("31-byte blob should be hashed, not literal")
	}
	if h.Size() != uint64(len(data)) {
		t.Fatalf("size = %d, want %d", h.Size(), len(data))
	}
	if h.LiteralData() != nil {
		t.Fatal("LiteralData on non-literal should be nil")
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBlobHandleDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		return BlobHandle(data) == BlobHandle(append([]byte{}, data...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlobHandleDistinct(t *testing.T) {
	// Distinct contents yield distinct handles (collision would require
	// breaking the hash or the literal encoding).
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return BlobHandle(a) != BlobHandle(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBlobVsTreeDomainSeparation(t *testing.T) {
	// A blob whose bytes happen to encode a tree must not share a handle
	// with that tree.
	child := BlobHandle([]byte("some payload that is long enough"))
	enc := EncodeTree([]Handle{child})
	bh := BlobHandle(enc)
	th := TreeHandle([]Handle{child})
	if bh.StorageKey() == th.StorageKey() {
		t.Fatal("blob and tree with identical payload share a digest")
	}
}

func TestTreeHandleSizeIsEntryCount(t *testing.T) {
	entries := []Handle{BlobHandle([]byte("a")), BlobHandle([]byte("b")), BlobHandle([]byte("c"))}
	h := TreeHandle(entries)
	if h.Kind() != KindTree {
		t.Fatalf("kind = %v, want tree", h.Kind())
	}
	if h.Size() != 3 {
		t.Fatalf("size = %d, want 3", h.Size())
	}
}

func TestThunkEncodeTagging(t *testing.T) {
	tree := TreeHandle([]Handle{LiteralU64(1), LiteralU64(2)})
	thunk, err := Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	if thunk.RefKind() != RefThunk || thunk.ThunkStyle() != ThunkApplication {
		t.Fatalf("thunk = %v", thunk)
	}
	strict, err := Strict(thunk)
	if err != nil {
		t.Fatal(err)
	}
	if strict.RefKind() != RefEncode || strict.EncodeStyle() != EncodeStrict {
		t.Fatalf("strict = %v", strict)
	}
	shallow, err := Shallow(thunk)
	if err != nil {
		t.Fatal(err)
	}
	if shallow.EncodeStyle() != EncodeShallow {
		t.Fatalf("shallow = %v", shallow)
	}
	if strict == shallow {
		t.Fatal("strict and shallow encodes must differ")
	}

	back, err := EncodedThunk(strict)
	if err != nil {
		t.Fatal(err)
	}
	if back != thunk {
		t.Fatalf("EncodedThunk(Strict(t)) = %v, want %v", back, thunk)
	}
	back2, err := EncodedThunk(shallow)
	if err != nil {
		t.Fatal(err)
	}
	if back2 != thunk {
		t.Fatalf("EncodedThunk(Shallow(t)) = %v, want %v", back2, thunk)
	}

	def, err := ThunkDefinition(thunk)
	if err != nil {
		t.Fatal(err)
	}
	if def != tree {
		t.Fatalf("ThunkDefinition = %v, want %v", def, tree)
	}
}

func TestApplicationNormalizesAccessibility(t *testing.T) {
	tree := TreeHandle([]Handle{LiteralU64(7)})
	a, err := Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Application(tree.AsRef())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("application thunk identity must not depend on accessibility of the supplied handle")
	}
}

func TestApplicationRejectsNonTree(t *testing.T) {
	if _, err := Application(BlobHandle([]byte("x"))); err == nil {
		t.Fatal("Application of a blob should fail")
	}
	tree := TreeHandle(nil)
	th, _ := Application(tree)
	if _, err := Application(th); err == nil {
		t.Fatal("Application of a thunk should fail")
	}
}

func TestStrictRejectsNonThunk(t *testing.T) {
	if _, err := Strict(BlobHandle([]byte("x"))); err == nil {
		t.Fatal("Strict of data should fail")
	}
	tree := TreeHandle(nil)
	th, _ := Application(tree)
	enc, _ := Strict(th)
	if _, err := Strict(enc); err == nil {
		t.Fatal("Strict of an encode should fail")
	}
}

func TestObjectRefRetag(t *testing.T) {
	h := BlobHandle(bytes.Repeat([]byte{9}, 40))
	r := h.AsRef()
	if r.RefKind() != RefRef {
		t.Fatalf("AsRef → %v", r.RefKind())
	}
	if r.Size() != h.Size() || r.Kind() != h.Kind() {
		t.Fatal("retag changed size or kind")
	}
	if r.AsObject() != h {
		t.Fatal("AsObject(AsRef(h)) != h")
	}
	// Thunks are unaffected by accessibility retagging.
	tree := TreeHandle(nil)
	th, _ := Application(tree)
	if th.AsRef() != th || th.AsObject() != th {
		t.Fatal("accessibility retag must not affect thunks")
	}
}

// TestStorageKey pins the one storage key: a data Handle is stored as its
// Object, a Thunk as its definition and an Encode as its Thunk's
// definition, whatever the reference tags say.
func TestStorageKey(t *testing.T) {
	blob := BlobHandle(bytes.Repeat([]byte{3}, 100))
	lit := LiteralU64(9)
	tree := TreeHandle([]Handle{lit, blob})
	app, _ := Application(tree)
	idBlob, _ := Identification(blob.AsRef())
	idLit, _ := Identification(lit)
	sel, _ := SelectionThunk(TreeHandle(SelectionEntries(tree, 1)))
	for _, h := range []Handle{blob, blob.AsRef(), lit, lit.AsRef(), tree, tree.AsRef()} {
		if got := h.StorageKey(); got != h.AsObject() {
			t.Errorf("StorageKey(%v) = %v, want AsObject %v", h, got, h.AsObject())
		}
	}
	for _, th := range []Handle{app, idBlob, idLit, sel} {
		def, _ := ThunkDefinition(th)
		if got := th.StorageKey(); got != def {
			t.Errorf("StorageKey(%v) = %v, want its definition %v", th, got, def)
		}
		strict, _ := Strict(th)
		shallow, _ := Shallow(th)
		for _, enc := range []Handle{strict, shallow} {
			inner, _ := EncodedThunk(enc)
			def, _ := ThunkDefinition(inner)
			if got := enc.StorageKey(); got != def {
				t.Errorf("StorageKey(%v) = %v, want its thunk's definition %v", enc, got, def)
			}
		}
	}
	// A Thunk shares its key with its defining Tree, and an
	// Identification with the data it identifies.
	if app.StorageKey() != tree.StorageKey() || idBlob.StorageKey() != blob {
		t.Fatal("a thunk must share its storage key with its definition")
	}
}

// TestFormatHandleIsLowercaseHex pins the text form the journals and the
// HTTP API carry, and the inputs ParseHandle refuses.
func TestFormatHandleIsLowercaseHex(t *testing.T) {
	tree := TreeHandle([]Handle{LiteralU64(1)})
	th, _ := Application(tree)
	enc, _ := Shallow(th)
	for _, h := range []Handle{{}, LiteralU64(7), BlobHandle(bytes.Repeat([]byte{0xab}, 64)), tree.AsRef(), th, enc} {
		s := FormatHandle(h)
		if s != hex.EncodeToString(h[:]) {
			t.Fatalf("FormatHandle(%v) = %q, want lowercase hex of the packed bytes", h, s)
		}
		if got, err := ParseHandle(s); err != nil || got != h {
			t.Fatalf("ParseHandle(FormatHandle(%v)) = %v, %v", h, got, err)
		}
	}
	good := FormatHandle(th)
	reserved := LiteralU64(1)
	reserved[flagsByte] |= flagReservedBit
	for _, s := range []string{"", good[:62], good + "00", strings.ToUpper(good), good[:10] + "g" + good[11:], FormatHandle(reserved)} {
		if _, err := ParseHandle(s); err == nil {
			t.Errorf("ParseHandle(%q) accepted", s)
		}
	}
}

func TestLiteralU64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		h := LiteralU64(v)
		if !h.IsLiteral() {
			return false
		}
		got, err := DecodeU64(h.LiteralData())
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLiteralU64Minimal(t *testing.T) {
	if LiteralU64(0).Size() != 1 {
		t.Fatalf("LiteralU64(0) size = %d, want 1", LiteralU64(0).Size())
	}
	if LiteralU64(255).Size() != 1 {
		t.Fatalf("LiteralU64(255) size = %d, want 1", LiteralU64(255).Size())
	}
	if LiteralU64(256).Size() != 2 {
		t.Fatalf("LiteralU64(256) size = %d, want 2", LiteralU64(256).Size())
	}
}

func TestDecodeU64TooLong(t *testing.T) {
	if _, err := DecodeU64(make([]byte, 9)); err == nil {
		t.Fatal("DecodeU64 of 9 bytes should fail")
	}
}

func TestValidateRejectsCorruptHandles(t *testing.T) {
	good := BlobHandle([]byte("ok"))

	bad := good
	bad[flagsByte] |= flagReservedBit
	if bad.Validate() == nil {
		t.Fatal("reserved bit should be rejected")
	}

	bad = good
	bad[auxByte] = MaxLiteral + 1
	if bad.Validate() == nil {
		t.Fatal("oversized literal length should be rejected")
	}

	bad = good
	bad[20] = 0xff // non-zero literal padding beyond length
	if bad.Validate() == nil {
		t.Fatal("dirty literal padding should be rejected")
	}

	bad = BlobHandle(bytes.Repeat([]byte{1}, 64))
	bad[auxByte] = 5
	if bad.Validate() == nil {
		t.Fatal("aux byte on canonical handle should be rejected")
	}

	// Thunk style bits on a plain data handle.
	bad = good
	bad[flagsByte] |= 1 << flagThunkShift
	if bad.Validate() == nil {
		t.Fatal("thunk style on data handle should be rejected")
	}
}

func TestValidateAcceptsAllConstructed(t *testing.T) {
	tree := TreeHandle([]Handle{LiteralU64(1)})
	th, _ := Application(tree)
	id, _ := Identification(BlobHandle([]byte("v")))
	sel, _ := SelectionThunk(TreeHandle(SelectionEntries(tree, 0)))
	st, _ := Strict(th)
	sh, _ := Shallow(th)
	for i, h := range []Handle{tree, tree.AsRef(), th, id, sel, st, sh} {
		if err := h.Validate(); err != nil {
			t.Fatalf("case %d (%v): %v", i, h, err)
		}
	}
}

func TestSelectionEntries(t *testing.T) {
	target := TreeHandle([]Handle{LiteralU64(1), LiteralU64(2)})
	entries := SelectionEntries(target.AsRef(), 1)
	if len(entries) != 2 {
		t.Fatalf("len = %d", len(entries))
	}
	if entries[0] != target.AsRef() {
		t.Fatal("target mismatch")
	}
	idx, err := DecodeU64(entries[1].LiteralData())
	if err != nil || idx != 1 {
		t.Fatalf("index = %d, %v", idx, err)
	}
	r := SelectionRangeEntries(target, 2, 9)
	if len(r) != 3 {
		t.Fatalf("range len = %d", len(r))
	}
}

func TestHandleStringForms(t *testing.T) {
	// Smoke-test String() on each variant; it must not panic and should
	// mention the ref kind.
	tree := TreeHandle([]Handle{LiteralU64(1)})
	th, _ := Application(tree)
	enc, _ := Strict(th)
	for _, h := range []Handle{BlobHandle([]byte("abc")), tree, th, enc, tree.AsRef()} {
		if h.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestSizeLarge(t *testing.T) {
	// Handles encode 48-bit sizes; check a multi-byte size round-trips.
	var h Handle
	putSize(&h, 0x0000_7f33_2211_00aa)
	if h.Size() != 0x0000_7f33_2211_00aa {
		t.Fatalf("size round-trip failed: %x", h.Size())
	}
}

// Property: retagging round-trips never alter content identity.
func TestRetagPreservesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(100))
		rng.Read(data)
		h := BlobHandle(data)
		id, err := Identification(h)
		if err != nil {
			t.Fatal(err)
		}
		def, err := ThunkDefinition(id)
		if err != nil {
			t.Fatal(err)
		}
		if def != h {
			t.Fatalf("identification round-trip changed handle: %v vs %v", def, h)
		}
	}
}
