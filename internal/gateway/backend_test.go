package gateway

import (
	"bytes"
	"testing"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// TestBackendSeam runs each Backend method the gateway needs beyond
// evaluation against both production backends over one store: a cluster
// node and an engine backend must ingest, resolve and replicate alike.
func TestBackendSeam(t *testing.T) {
	node := cluster.NewNode("seam", cluster.NodeOptions{Cores: 1})
	defer node.Close()
	st := node.Store()
	backends := []Backend{node, NewEngineBackend(runtime.New(st, runtime.Options{Cores: 1}))}

	rows := []struct {
		name  string
		check func(t *testing.T, i int, b Backend)
	}{
		// An owned upload keeps the handle the streaming hasher computed
		// and stores exactly the bytes it names.
		{"put_blob_owned", func(t *testing.T, i int, b Backend) {
			data := bytes.Repeat([]byte{byte('a' + i)}, 100)
			hasher := core.NewBlobHasher()
			hasher.Write(data)
			h := hasher.Handle()
			if got := b.PutBlobOwned(h, data); got != h {
				t.Fatalf("PutBlobOwned = %v, want the hasher's %v", got, h)
			}
			if got, err := st.ObjectBytes(h); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 100)) {
				t.Fatalf("stored blob = %q, %v", got, err)
			}
		}},
		// The same payload, in the same order. An object that would pass
		// the 4 MiB budget is skipped, and later objects that fit are
		// still taken: here a 640 KiB subtree is dropped but the Blob it
		// names is kept.
		{"job_payload", func(t *testing.T, i int, b Backend) {
			first := st.PutBlob(bytes.Repeat([]byte{1}, 7<<19))
			small := st.PutBlob(bytes.Repeat([]byte{2}, 100))
			wide := make([]core.Handle, 20000)
			for i := range wide {
				wide[i] = core.LiteralU64(uint64(i))
			}
			wide[len(wide)-1] = small
			sub, err := st.PutTree(wide)
			if err != nil {
				t.Fatal(err)
			}
			def, err := st.PutTree([]core.Handle{core.DefaultLimits.Handle(), first, sub})
			if err != nil {
				t.Fatal(err)
			}
			app, _ := core.Application(def)
			enc, _ := core.Strict(app)
			want := []core.Handle{def, first, small}
			got := b.JobPayload(enc)
			if len(got) != len(want) {
				t.Fatalf("payload has %d objects, want %d (%v)", len(got), len(want), want)
			}
			for k, p := range got {
				data, _ := st.ObjectBytes(want[k])
				if p.Handle != want[k] || !bytes.Equal(p.Data, data) {
					t.Errorf("payload object %d = %v, want %v", k, p.Handle, want[k])
				}
			}
		}},
		// A literal carries its value and a resident blob is at hand;
		// a blob nobody stored is not resolvable.
		{"resolvable_hint", func(t *testing.T, i int, b Backend) {
			resident := st.PutBlob(bytes.Repeat([]byte{'r'}, 100))
			absent := core.BlobHandle(bytes.Repeat([]byte{'x', byte(i)}, 100))
			for _, c := range []struct {
				what string
				h    core.Handle
				want bool
			}{{"literal", core.LiteralU64(7), true}, {"resident blob", resident, true}, {"absent blob", absent, false}} {
				if got := b.ResolvableHint(c.h); got != c.want {
					t.Errorf("ResolvableHint(%s) = %v, want %v", c.what, got, c.want)
				}
			}
		}},
		// A payload packed by another store becomes resident here.
		{"absorb_payload", func(t *testing.T, i int, b Backend) {
			origin := store.New()
			fn := origin.PutBlob(bytes.Repeat([]byte{'f', byte(i)}, 100))
			arg := origin.PutBlob(bytes.Repeat([]byte{'g', byte(i)}, 100))
			def, err := origin.PutTree([]core.Handle{core.DefaultLimits.Handle(), fn, arg})
			if err != nil {
				t.Fatal(err)
			}
			app, _ := core.Application(def)
			enc, _ := core.Strict(app)
			payload := origin.JobPayload(enc)
			if len(payload) != 3 {
				t.Fatalf("origin payload has %d objects, want 3", len(payload))
			}
			for _, p := range payload {
				if st.Contains(p.Handle) {
					t.Fatalf("%v resident before the absorb", p.Handle)
				}
			}
			b.AbsorbPayload(payload)
			for _, p := range payload {
				if !st.Contains(p.Handle) {
					t.Errorf("%v not resident after the absorb", p.Handle)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i, b := range backends {
				t.Run([]string{"node", "engine"}[i], func(t *testing.T) { row.check(t, i, b) })
			}
		})
	}
}
