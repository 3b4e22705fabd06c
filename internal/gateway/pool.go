package gateway

import (
	"bytes"
	"sync"
)

// The gateway's request hot paths — JSON encode on every reply, JSON
// decode scratch on /v1/jobs, /v1/trees and /v1/jobs:batch, body slurp
// on /v1/blobs, and the SDK's read of a hand-framed reply — churn
// through short-lived byte buffers. Pooling them (the snippet-3
// yggdrasil idiom) turns those per-request allocations into reuse of a
// few warm buffers per P.
//
// The safety contract is strict: a pooled buffer's bytes must never
// escape to a caller that can read them after putBuf. Handlers therefore
// either copy out (handlePutBlob hands the backend an exact-size copy,
// a handle read in place is parsed into a Handle) or fully drain the
// buffer into the ResponseWriter before returning it.

// maxPooledBuf caps the capacity a returned buffer may retain. A single
// 64 MiB blob upload must not pin 64 MiB in the pool forever; oversized
// buffers are dropped for the GC instead.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf returns an empty buffer from the pool.
func getBuf() *bytes.Buffer {
	return bufPool.Get().(*bytes.Buffer)
}

// putBuf recycles a buffer. The caller must hold no live reference to
// the buffer's bytes (TestPoolNoLiveReferences pins this for every
// handler that pools).
func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// chunkSize is the fixed read size of the streaming blob-upload path:
// large enough to amortize syscall overhead, small enough that the
// per-request transient footprint stays constant regardless of blob size.
const chunkSize = 256 << 10

var chunkPool = sync.Pool{New: func() any { return make([]byte, chunkSize) }}

// getChunk returns a fixed-size read buffer from the pool. The same
// escape contract as getBuf applies: the chunk's bytes must be consumed
// (hashed, appended elsewhere) before putChunk.
func getChunk() []byte {
	return chunkPool.Get().([]byte)
}

// putChunk recycles a read chunk.
func putChunk(b []byte) {
	chunkPool.Put(b)
}
