package cluster

import (
	"context"

	"fixgo/internal/core"
	"fixgo/internal/proto"
)

// This file is the node's programmatic ingestion surface: the hooks a
// serving frontend (internal/gateway) uses to upload objects and read
// results without going through the fixctl wire path. Uploads advertise
// incrementally — one handle per message — instead of re-broadcasting the
// whole inventory the way AdvertiseAll does, so a gateway pushing many
// small objects does not quadratically re-announce its store.

// PutBlobOwned stores a Blob whose Handle the caller already computed
// with a core.BlobHasher over exactly data, taking ownership of the slice
// — the streaming upload path's no-copy, no-rehash insert — advertises it
// to all peers, and — with Replicas > 1 — asynchronously pushes copies to
// the blob's ring successors. Literal Blobs live entirely in their Handle
// and need no advertisement or replication.
func (n *Node) PutBlobOwned(h core.Handle, data []byte) core.Handle {
	h = n.st.PutBlobOwned(h, data)
	if !h.IsLiteral() {
		n.touch(h)
		n.broadcast(&proto.Message{Type: proto.TypeAdvertise, From: n.id, Adverts: []core.Handle{h}})
		n.replicate([]core.Handle{h}, false, "")
	}
	return h
}

// PutTree stores a Tree on this node and advertises and replicates it
// like PutBlobOwned.
func (n *Node) PutTree(entries []core.Handle) (core.Handle, error) {
	h, err := n.st.PutTree(entries)
	if err != nil {
		return core.Handle{}, err
	}
	n.touch(h)
	n.broadcast(&proto.Message{Type: proto.TypeAdvertise, From: n.id, Adverts: []core.Handle{h}})
	n.replicate([]core.Handle{h}, false, "")
	return h, nil
}

// ObjectBytes returns the packed bytes of an object, fetching it from
// peers (or the storage tier) when it is not locally resident.
func (n *Node) ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	if data, err := n.st.ObjectBytes(h); err == nil {
		n.touch(h)
		return data, nil
	}
	f := &clusterFetcher{n: n}
	return f.Fetch(ctx, h)
}

// JobPayload returns the locally resident definition closure of an
// accepted job, bounded like every job payload (store.JobPayload). The
// gateway replicates it inside the job's edge-log entry so a peer adopting
// the job after this node dies still has the bytes the handle names.
func (n *Node) JobPayload(h core.Handle) []proto.PushedObject {
	return n.st.JobPayload(h)
}

// AbsorbPayload ingests a replicated job payload ahead of a takeover:
// every object is stored and advertised like an upload, so the adopted
// job's evaluation — local or delegated — finds its definition
// resident.
func (n *Node) AbsorbPayload(objs []proto.PushedObject) {
	if len(objs) == 0 {
		return
	}
	adverts := make([]core.Handle, 0, len(objs))
	for _, p := range objs {
		if err := n.st.PutObject(p.Handle, p.Data); err != nil {
			continue
		}
		n.touch(p.Handle)
		adverts = append(adverts, p.Handle)
	}
	if len(adverts) > 0 {
		n.broadcast(&proto.Message{Type: proto.TypeAdvertise, From: n.id, Adverts: adverts})
	}
}
