// Package core implements the Fix ABI: the placement-independent binary
// representation of data, function invocations, and data dependencies
// described in section 3 of "Fix: externalizing network I/O in serverless
// computing" (EuroSys '26).
//
// Every Fix value is named by a 32-byte Handle that carries a truncated
// 192-bit content digest (or, for small Blobs, the bytes themselves), a
// 48-bit size field, and 16 bits of metadata: the value's shape (Blob or
// Tree), its reference kind (Object, Ref, Thunk, Encode), the Thunk style
// (Application, Identification, Selection), and the Encode style (Strict,
// Shallow). Handles are plain comparable values; the computation graph
// needed to evaluate a Fix object is described entirely by the object
// itself, so runtimes exchange Handles and packed Blob/Tree bytes with no
// side metadata.
//
// Substitution note: the paper uses BLAKE3 truncated to 192 bits; the Go
// standard library has no BLAKE3, so this implementation truncates SHA-256
// to 192 bits. The handle layout and the literal-Blob optimization are
// otherwise identical.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// HandleSize is the size in bytes of a packed Handle. Handles are designed
// to fit in a SIMD register (%ymm on x86-64) so they can be passed by value
// between the runtime and untrusted codelets.
const HandleSize = 32

// MaxLiteral is the largest Blob stored inline in its Handle ("literal"
// Blobs). Larger Blobs are named by digest.
const MaxLiteral = 30

// MaxSize is the largest representable object size (48-bit size field).
const MaxSize = (uint64(1) << 48) - 1

// Handle names a Fix value. The zero Handle is invalid (see IsZero).
//
// Layout (canonical, non-literal):
//
//	bytes [0:24)  truncated content digest
//	bytes [24:30) size, little-endian 48 bits (Blob: bytes; Tree: entries)
//	byte  30      0
//	byte  31      flags
//
// Layout (literal Blob, length ≤ 30):
//
//	bytes [0:30)  Blob contents, zero padded
//	byte  30      length
//	byte  31      flags (literal bit set)
type Handle [HandleSize]byte

// Kind is the shape of the value a Handle ultimately refers to.
type Kind uint8

const (
	// KindBlob names a contiguous region of bytes.
	KindBlob Kind = iota
	// KindTree names an ordered collection of Handles.
	KindTree
)

func (k Kind) String() string {
	switch k {
	case KindBlob:
		return "blob"
	case KindTree:
		return "tree"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RefKind is the reference type of a Handle (section 3.1).
type RefKind uint8

const (
	// RefObject is an accessible reference: a procedure holding it may
	// read the referent's data.
	RefObject RefKind = iota
	// RefRef is an inaccessible reference: type and size may be queried
	// but the data may not be read. Refs let functions reference remote
	// data without fetching it to the execution server.
	RefRef
	// RefThunk is a deferred computation.
	RefThunk
	// RefEncode is a request to evaluate a Thunk and replace it with the
	// result.
	RefEncode
)

func (r RefKind) String() string {
	switch r {
	case RefObject:
		return "object"
	case RefRef:
		return "ref"
	case RefThunk:
		return "thunk"
	case RefEncode:
		return "encode"
	default:
		return fmt.Sprintf("refkind(%d)", uint8(r))
	}
}

// ThunkStyle distinguishes the three Thunk forms.
type ThunkStyle uint8

const (
	// ThunkApplication refers to a Tree describing a function invocation:
	// [resource-limits, function, args...].
	ThunkApplication ThunkStyle = iota
	// ThunkIdentification applies the identity function to some data.
	ThunkIdentification
	// ThunkSelection refers to a Tree describing a "pinpoint" dependency:
	// the extraction of a child or subrange of a Blob or Tree.
	ThunkSelection
)

func (s ThunkStyle) String() string {
	switch s {
	case ThunkApplication:
		return "application"
	case ThunkIdentification:
		return "identification"
	case ThunkSelection:
		return "selection"
	default:
		return fmt.Sprintf("thunkstyle(%d)", uint8(s))
	}
}

// EncodeStyle distinguishes eager from lazy evaluation requests.
type EncodeStyle uint8

const (
	// EncodeStrict requests the maximum amount of computation: the Thunk
	// is replaced by its fully evaluated result as an Object, recursively
	// descending into Trees.
	EncodeStrict EncodeStyle = iota
	// EncodeShallow requests the minimum computation needed to make
	// progress: the Thunk is evaluated until the result is not a Thunk
	// and the result is provided as a Ref.
	EncodeShallow
)

func (s EncodeStyle) String() string {
	switch s {
	case EncodeStrict:
		return "strict"
	case EncodeShallow:
		return "shallow"
	default:
		return fmt.Sprintf("encodestyle(%d)", uint8(s))
	}
}

// Flag bit layout within byte 31 of a Handle.
const (
	flagKindTree    = 1 << 0 // set: Tree, clear: Blob
	flagRefShift    = 1      // bits 1-2: RefKind
	flagRefMask     = 3 << flagRefShift
	flagThunkShift  = 3 // bits 3-4: ThunkStyle
	flagThunkMask   = 3 << flagThunkShift
	flagEncShallow  = 1 << 5 // set: Shallow, clear: Strict
	flagLiteral     = 1 << 6 // set: literal Blob payload in bytes [0:30)
	flagReservedBit = 1 << 7
)

const (
	flagsByte = 31
	auxByte   = 30 // literal length for literal handles, else zero
)

// hash domain-separation tags.
const (
	domainBlob = 0x00
	domainTree = 0x01
)

// BlobHandle computes the canonical Object Handle for a Blob. Blobs of at
// most MaxLiteral bytes become literals: the contents are stored directly
// in the Handle and no storage entry is required.
func BlobHandle(data []byte) Handle {
	var h Handle
	if len(data) <= MaxLiteral {
		copy(h[:MaxLiteral], data)
		h[auxByte] = byte(len(data))
		h[flagsByte] = flagLiteral
		return h
	}
	sum := digest(domainBlob, data)
	copy(h[:24], sum[:])
	putSize(&h, uint64(len(data)))
	h[flagsByte] = 0
	return h
}

// TreeHandle computes the canonical Object Handle for a Tree. The size
// field holds the number of entries. Trees are never literals.
func TreeHandle(entries []Handle) Handle {
	var h Handle
	sum := digest(domainTree, TreeBytes(entries))
	copy(h[:24], sum[:])
	putSize(&h, uint64(len(entries)))
	h[flagsByte] = flagKindTree
	return h
}

func digest(domain byte, payload []byte) [24]byte {
	hsh := sha256.New()
	hsh.Write([]byte{domain})
	hsh.Write(payload)
	var sum [sha256.Size]byte
	var out [24]byte
	copy(out[:], hsh.Sum(sum[:0]))
	return out
}

func putSize(h *Handle, n uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], n)
	copy(h[24:30], buf[:6])
}

// Kind reports the shape of the value the Handle refers to. For Thunks and
// Encodes this is the shape of the *defining* value (Application and
// Selection Thunks refer to Trees; Identification Thunks refer to the
// identified value).
func (h Handle) Kind() Kind {
	if h[flagsByte]&flagKindTree != 0 {
		return KindTree
	}
	return KindBlob
}

// RefKind reports the reference type of the Handle.
func (h Handle) RefKind() RefKind {
	return RefKind((h[flagsByte] & flagRefMask) >> flagRefShift)
}

// ThunkStyle reports the Thunk style. Only meaningful when RefKind is
// RefThunk or RefEncode.
func (h Handle) ThunkStyle() ThunkStyle {
	return ThunkStyle((h[flagsByte] & flagThunkMask) >> flagThunkShift)
}

// EncodeStyle reports the Encode style. Only meaningful when RefKind is
// RefEncode.
func (h Handle) EncodeStyle() EncodeStyle {
	if h[flagsByte]&flagEncShallow != 0 {
		return EncodeShallow
	}
	return EncodeStrict
}

// IsLiteral reports whether the Handle holds its Blob contents inline.
func (h Handle) IsLiteral() bool { return h[flagsByte]&flagLiteral != 0 }

// IsZero reports whether h is the (invalid) zero Handle.
func (h Handle) IsZero() bool { return h == Handle{} }

// IsData reports whether the Handle refers directly to data (Object or Ref,
// as opposed to a deferred computation).
func (h Handle) IsData() bool {
	rk := h.RefKind()
	return rk == RefObject || rk == RefRef
}

// Size reports the referent's size: bytes for Blobs, entries for Trees.
func (h Handle) Size() uint64 {
	if h.IsLiteral() {
		return uint64(h[auxByte])
	}
	var buf [8]byte
	copy(buf[:6], h[24:30])
	return binary.LittleEndian.Uint64(buf[:])
}

// LiteralData returns the inline Blob contents of a literal Handle. It
// returns nil when the Handle is not a literal.
func (h Handle) LiteralData() []byte {
	if !h.IsLiteral() {
		return nil
	}
	n := int(h[auxByte])
	if n > MaxLiteral {
		n = MaxLiteral
	}
	out := make([]byte, n)
	copy(out, h[:n])
	return out
}

// LiteralView returns the inline Blob contents of a literal Handle in
// place, as a read-only view of *h: unlike LiteralData it copies nothing.
// It returns nil when the Handle is not a literal.
func (h *Handle) LiteralView() []byte {
	if !h.IsLiteral() {
		return nil
	}
	return h[:min(int(h[auxByte]), MaxLiteral)]
}

// StorageKey returns the key the object backing h is stored under: the
// Object-tagged form of a data Handle, and the defining value of a Thunk
// or Encode (ThunkDefinition of the Thunk). It clears every reference-kind
// bit, so two Handles with equal keys name the same underlying value.
func (h Handle) StorageKey() Handle {
	h[flagsByte] &^= flagRefMask | flagThunkMask | flagEncShallow
	return h
}

func (h Handle) withRef(rk RefKind) Handle {
	h[flagsByte] = h[flagsByte]&^flagRefMask | byte(rk)<<flagRefShift
	return h
}

func (h Handle) withThunkStyle(s ThunkStyle) Handle {
	h[flagsByte] = h[flagsByte]&^flagThunkMask | byte(s)<<flagThunkShift
	return h
}

// AsObject retags a data Handle as an accessible Object. Thunks and
// Encodes cannot be made accessible; they are returned unchanged. That
// makes AsObject the identity key of a Handle: an Object and a Ref to the
// same bytes share it, while a Thunk or Encode keeps its full tag, because
// its style (Application or Selection, Strict or Shallow) changes what it
// evaluates to.
func (h Handle) AsObject() Handle {
	switch h.RefKind() {
	case RefObject, RefRef:
		return h.withRef(RefObject).withThunkStyle(0)
	default:
		return h
	}
}

// AsRef retags a data Handle as an inaccessible Ref. Thunks and Encodes
// are returned unchanged.
func (h Handle) AsRef() Handle {
	switch h.RefKind() {
	case RefObject, RefRef:
		return h.withRef(RefRef).withThunkStyle(0)
	default:
		return h
	}
}

// Application wraps a Tree describing an invocation ([limits, function,
// args...]) into an Application Thunk. The Thunk's identity depends only on
// the Tree's content, not on the accessibility of the Handle supplied.
func Application(tree Handle) (Handle, error) {
	if tree.Kind() != KindTree {
		return Handle{}, fmt.Errorf("core: application thunk requires a tree, got %v", tree.Kind())
	}
	if !tree.IsData() {
		return Handle{}, fmt.Errorf("core: application thunk requires data, got %v", tree.RefKind())
	}
	return tree.withRef(RefThunk).withThunkStyle(ThunkApplication), nil
}

// Identification wraps data in an Identification Thunk (the identity
// function). Evaluating the Thunk yields the referent.
func Identification(v Handle) (Handle, error) {
	if !v.IsData() {
		return Handle{}, fmt.Errorf("core: identification thunk requires data, got %v", v.RefKind())
	}
	return v.withRef(RefThunk).withThunkStyle(ThunkIdentification), nil
}

// SelectionThunk wraps a Tree describing a selection (built by
// SelectionEntries) into a Selection Thunk.
func SelectionThunk(tree Handle) (Handle, error) {
	if tree.Kind() != KindTree {
		return Handle{}, fmt.Errorf("core: selection thunk requires a tree, got %v", tree.Kind())
	}
	if !tree.IsData() {
		return Handle{}, fmt.Errorf("core: selection thunk requires data, got %v", tree.RefKind())
	}
	return tree.withRef(RefThunk).withThunkStyle(ThunkSelection), nil
}

// SelectionEntries builds the entries of a Tree describing the selection of
// a single child (Tree) or byte (Blob) at index from target. The target may
// be any Handle, including a Ref or a Thunk wrapped in an Encode.
func SelectionEntries(target Handle, index uint64) []Handle {
	return []Handle{target, LiteralU64(index)}
}

// SelectionRangeEntries builds the entries of a Tree describing the
// extraction of the subrange [begin, end) of target.
func SelectionRangeEntries(target Handle, begin, end uint64) []Handle {
	return []Handle{target, LiteralU64(begin), LiteralU64(end)}
}

// Strict wraps a Thunk in a Strict Encode: a request for its fully
// evaluated result as an Object.
func Strict(thunk Handle) (Handle, error) {
	if thunk.RefKind() != RefThunk {
		return Handle{}, fmt.Errorf("core: strict encode requires a thunk, got %v", thunk.RefKind())
	}
	h := thunk.withRef(RefEncode)
	h[flagsByte] &^= flagEncShallow
	return h, nil
}

// Shallow wraps a Thunk in a Shallow Encode: a request for the minimum
// evaluation needed to make progress, delivered as a Ref.
func Shallow(thunk Handle) (Handle, error) {
	if thunk.RefKind() != RefThunk {
		return Handle{}, fmt.Errorf("core: shallow encode requires a thunk, got %v", thunk.RefKind())
	}
	h := thunk.withRef(RefEncode)
	h[flagsByte] |= flagEncShallow
	return h, nil
}

// EncodedThunk recovers the Thunk an Encode refers to.
func EncodedThunk(encode Handle) (Handle, error) {
	if encode.RefKind() != RefEncode {
		return Handle{}, fmt.Errorf("core: not an encode: %v", encode.RefKind())
	}
	h := encode.withRef(RefThunk)
	h[flagsByte] &^= flagEncShallow
	return h, nil
}

// ThunkDefinition recovers the data Handle underlying a Thunk: the defining
// Tree for Application and Selection Thunks, or the identified value for
// Identification Thunks. The result is returned as an Object.
func ThunkDefinition(thunk Handle) (Handle, error) {
	if thunk.RefKind() != RefThunk {
		return Handle{}, fmt.Errorf("core: not a thunk: %v", thunk.RefKind())
	}
	return thunk.withRef(RefObject).withThunkStyle(0), nil
}

// LiteralU64 returns the literal Blob Handle for the minimal little-endian
// encoding of v. It is the conventional encoding of integers (indices,
// resource limits, small arguments) throughout the ABI.
func LiteralU64(v uint64) Handle {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	n := 8
	for n > 1 && buf[n-1] == 0 {
		n--
	}
	return BlobHandle(buf[:n])
}

// DecodeU64 decodes an integer produced by LiteralU64 (or any little-endian
// Blob of at most 8 bytes).
func DecodeU64(data []byte) (uint64, error) {
	if len(data) > 8 {
		return 0, fmt.Errorf("core: integer blob too long (%d bytes)", len(data))
	}
	var buf [8]byte
	copy(buf[:], data)
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Validate checks that a Handle deserialized from the network is
// well-formed: reserved bits clear, literal lengths in range, literal
// padding zeroed, and flag combinations meaningful.
func (h Handle) Validate() error {
	f := h[flagsByte]
	if f&flagReservedBit != 0 {
		return fmt.Errorf("core: reserved flag bit set")
	}
	if h.IsLiteral() {
		if h.Kind() != KindBlob {
			return fmt.Errorf("core: literal tree handle")
		}
		n := int(h[auxByte])
		if n > MaxLiteral {
			return fmt.Errorf("core: literal length %d exceeds max %d", n, MaxLiteral)
		}
		for _, b := range h[n:MaxLiteral] {
			if b != 0 {
				return fmt.Errorf("core: literal padding not zeroed")
			}
		}
	} else if h[auxByte] != 0 {
		return fmt.Errorf("core: aux byte set on non-literal handle")
	}
	if h.RefKind() == RefObject || h.RefKind() == RefRef {
		if h.ThunkStyle() != 0 {
			return fmt.Errorf("core: thunk style set on data handle")
		}
		if f&flagEncShallow != 0 {
			return fmt.Errorf("core: encode style set on data handle")
		}
	}
	if h.RefKind() == RefThunk && f&flagEncShallow != 0 {
		return fmt.Errorf("core: encode style set on thunk handle")
	}
	if (h.RefKind() == RefThunk || h.RefKind() == RefEncode) &&
		h.ThunkStyle() != ThunkIdentification && h.Kind() != KindTree {
		return fmt.Errorf("core: %v thunk must refer to a tree", h.ThunkStyle())
	}
	return nil
}

// String renders a short human-readable description, e.g.
// "blob/object lit:3 0x010203" or "tree/thunk/application n=4 ab12cd…".
func (h Handle) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v/%v", h.Kind(), h.RefKind())
	if rk := h.RefKind(); rk == RefThunk || rk == RefEncode {
		fmt.Fprintf(&b, "/%v", h.ThunkStyle())
		if rk == RefEncode {
			fmt.Fprintf(&b, "/%v", h.EncodeStyle())
		}
	}
	if h.IsLiteral() {
		fmt.Fprintf(&b, " lit:%d 0x%s", h.Size(), hex.EncodeToString(h.LiteralData()))
	} else {
		fmt.Fprintf(&b, " n=%d %s…", h.Size(), hex.EncodeToString(h[:6]))
	}
	return b.String()
}

// FormatHandle writes h in its text form: the 64 lowercase hex digits of
// its packed bytes. Journals, HTTP bodies and object file names all use it.
func FormatHandle(h Handle) string {
	var buf [2 * HandleSize]byte
	return string(AppendHandle(buf[:0], h))
}

// AppendHandle appends h's text form (FormatHandle's 64 digits) to dst.
// It allocates only when dst must grow, so an encoder framing a Handle
// into a reused buffer pays nothing for it.
func AppendHandle(dst []byte, h Handle) []byte {
	return hex.AppendEncode(dst, h[:])
}

// ParseHandle reads the text form FormatHandle writes: exactly 64
// lowercase hex digits naming a Handle that passes Validate. Every Handle
// that arrives as text, from a request, a journal or a file name, goes
// through it or through ParseHandleBytes.
func ParseHandle(s string) (Handle, error) { return parseHandle(s) }

// ParseHandleBytes is ParseHandle over bytes, for a decoder reading a
// Handle in place from a request body: same rule, same errors, no copy.
func ParseHandleBytes(b []byte) (Handle, error) { return parseHandle(b) }

func parseHandle[T string | []byte](s T) (Handle, error) {
	var h Handle
	if len(s) != 2*HandleSize {
		return Handle{}, fmt.Errorf("core: handle must be %d hex digits, got %d", 2*HandleSize, len(s))
	}
	for i := range h {
		hi, lo := fromHex(s[2*i]), fromHex(s[2*i+1])
		if hi > 0xf || lo > 0xf {
			return Handle{}, fmt.Errorf("core: handle has a non-hex digit near offset %d", 2*i)
		}
		h[i] = hi<<4 | lo
	}
	if err := h.Validate(); err != nil {
		return Handle{}, err
	}
	return h, nil
}

// fromHex is the value of a lowercase hex digit, or 0xff for any other
// byte: uppercase digits are refused so that each Handle has exactly one
// text form.
func fromHex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return 0xff
}
