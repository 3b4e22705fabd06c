package core

// Store is the minimal content-addressed storage interface the ABI helpers
// and the runtime build on. Implementations must be safe for concurrent
// use.
type Store interface {
	// PutBlob stores a Blob and returns its Object Handle. Literal Blobs
	// (≤ MaxLiteral bytes) need not be persisted; their Handle carries
	// the contents.
	PutBlob(data []byte) Handle
	// PutTree stores a Tree and returns its Object Handle.
	PutTree(entries []Handle) (Handle, error)
	// Blob returns the contents of a Blob. Works for literal Handles
	// regardless of store contents.
	Blob(h Handle) ([]byte, error)
	// Tree returns the entries of a Tree.
	Tree(h Handle) ([]Handle, error)
	// Contains reports whether the referent's data is available locally.
	// Literals are always available.
	Contains(h Handle) bool
}

// API is the surface Fixpoint exposes to running procedures (Listing 1 of
// the paper). A procedure receives the Handle of its resolved definition
// Tree and may only attach data reachable from it — the "minimum
// repository" discipline of section 3.3. Creating new Thunks that
// reference Refs is always permitted; that is how a procedure grows the
// repository of a *child* invocation without growing its own.
type API interface {
	// AttachBlob maps a BlobObject's contents. Fails for Refs, Thunks,
	// Encodes, Trees, and Handles outside the minimum repository.
	AttachBlob(h Handle) ([]byte, error)
	// AttachTree maps a TreeObject's entries, granting access to each
	// entry (recursive mapping starts from the input Tree).
	AttachTree(h Handle) ([]Handle, error)
	// CreateBlob stores a new Blob built by the procedure. data is only
	// lent for the call (a codelet passes a view of its reused memory):
	// an implementation keeps a copy, never data itself.
	CreateBlob(data []byte) Handle
	// CreateTree stores a new Tree built by the procedure. Every entry
	// must be a Handle the procedure holds.
	CreateTree(entries []Handle) (Handle, error)
	// Application creates an Application Thunk from an invocation Tree.
	Application(tree Handle) (Handle, error)
	// Identification creates an Identification Thunk.
	Identification(v Handle) (Handle, error)
	// Selection creates a Selection Thunk extracting child `index` of
	// target (a Tree child or a Blob byte).
	Selection(target Handle, index uint64) (Handle, error)
	// SelectionRange creates a Selection Thunk extracting the subrange
	// [begin, end) of target.
	SelectionRange(target Handle, begin, end uint64) (Handle, error)
	// Strict wraps a Thunk in a Strict Encode.
	Strict(thunk Handle) (Handle, error)
	// Shallow wraps a Thunk in a Shallow Encode.
	Shallow(thunk Handle) (Handle, error)
	// SizeOf queries a referent's size (valid on Refs as well as
	// Objects: Refs expose type and length but not data).
	SizeOf(h Handle) uint64
	// KindOf queries a referent's shape.
	KindOf(h Handle) Kind
	// RefKindOf queries a Handle's reference kind.
	RefKindOf(h Handle) RefKind
}

// Procedure is executable code in the Fix model: the analog of a machine
// codelet's _fix_apply entrypoint. It receives the Handle of its resolved
// definition Tree and returns the Handle of a Fix object (possibly a new
// Thunk, which the runtime continues evaluating). Procedures must be pure:
// equal inputs must yield equal outputs. They run to completion without
// blocking on I/O; everything they may read is resident before Apply is
// called.
type Procedure interface {
	Apply(api API, input Handle) (Handle, error)
}

// ProcedureFunc adapts a function to the Procedure interface.
type ProcedureFunc func(api API, input Handle) (Handle, error)

// Apply calls f.
func (f ProcedureFunc) Apply(api API, input Handle) (Handle, error) { return f(api, input) }
