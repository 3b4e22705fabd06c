// Package gateway is the multi-tenant HTTP serving frontend of a Fixpoint
// deployment: the layer that owns client-facing network I/O on behalf of
// the cluster, the way the paper's thesis says the platform should own
// network I/O on behalf of functions.
//
// Clients speak HTTP/JSON: they upload Blobs, assemble Trees, and submit
// jobs (Thunks or Encodes) by content-addressed Handle. Because Fix names
// computations by the content of their definition, two clients submitting
// the same Thunk Handle are — by construction — asking for the same
// answer. The gateway exploits that determinism twice:
//
//   - a result cache maps Handle → evaluated result, so a repeated
//     submission is served from an LRU without touching the cluster; and
//   - single-flight collapsing joins concurrent identical submissions
//     onto one in-flight evaluation, so a thundering herd of K clients
//     costs one cluster job and K−1 cheap waits.
//
// Around that sits admission control — a bounded number of in-flight
// cluster evaluations plus a bounded wait queue, with 429 beyond it — and
// per-tenant accounting keyed on the X-Fix-Tenant header. Cache hits and
// collapsed waiters bypass admission entirely: memoized answers should
// never queue behind new work.
//
// The execution substrate is abstracted as a Backend: an in-process
// runtime.Engine (simulated benchmarks, single-node serving) or a
// cluster.Node (real deployments, with the node's dataflow-aware
// scheduler placing each job). cmd/fixgate wires either up behind the
// HTTP server; Client is the Go SDK for the wire API.
package gateway

import (
	"context"
	"errors"
	"fmt"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// Backend is the execution substrate behind a gateway. Both
// *EngineBackend and *cluster.Node satisfy it.
type Backend interface {
	// Eval forces h (data, Thunk, or Encode) to a data Handle.
	Eval(ctx context.Context, h core.Handle) (core.Handle, error)
	// PutBlob ingests an uploaded Blob.
	PutBlob(data []byte) core.Handle
	// PutTree ingests an uploaded Tree.
	PutTree(entries []core.Handle) (core.Handle, error)
	// ObjectBytes returns the packed bytes of an object, fetching it
	// from the substrate when it is not immediately at hand.
	ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error)
}

// EngineBackend adapts an in-process runtime.Engine to the Backend
// interface.
type EngineBackend struct {
	eng *runtime.Engine
}

// NewEngineBackend wraps an engine.
func NewEngineBackend(e *runtime.Engine) *EngineBackend { return &EngineBackend{eng: e} }

// Engine returns the wrapped engine.
func (b *EngineBackend) Engine() *runtime.Engine { return b.eng }

// Store returns the engine's runtime storage.
func (b *EngineBackend) Store() *store.Store { return b.eng.Store() }

// Eval forces h on the engine.
func (b *EngineBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	return b.eng.Eval(ctx, h)
}

// PutBlob stores a Blob.
func (b *EngineBackend) PutBlob(data []byte) core.Handle { return b.eng.Store().PutBlob(data) }

// PutBlobOwned stores a pre-hashed Blob without copying or re-hashing,
// taking ownership of data. Implements OwnedBlobPutter.
func (b *EngineBackend) PutBlobOwned(h core.Handle, data []byte) core.Handle {
	return b.eng.Store().PutBlobOwned(h, data)
}

// PutTree stores a Tree.
func (b *EngineBackend) PutTree(entries []core.Handle) (core.Handle, error) {
	return b.eng.Store().PutTree(entries)
}

// ObjectBytes reads an object's packed bytes from the engine's store.
func (b *EngineBackend) ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	return b.eng.Store().ObjectBytes(h)
}

// parseHandle reads a Handle in core's text form. The zero Handle passes
// core's checks but names nothing a client uploaded or a job returned, so
// the API refuses it in requests and replies alike.
func parseHandle(s string) (core.Handle, error) {
	return checkHandle(core.ParseHandle(s))
}

// parseHandleBytes is parseHandle over text read in place from a body.
func parseHandleBytes(b []byte) (core.Handle, error) {
	return checkHandle(core.ParseHandleBytes(b))
}

func checkHandle(h core.Handle, err error) (core.Handle, error) {
	if err == nil && h.IsZero() {
		err = errors.New("zero handle")
	}
	if err != nil {
		return core.Handle{}, fmt.Errorf("gateway: %w", err)
	}
	return h, nil
}
