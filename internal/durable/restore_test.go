package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// restoreBlob is the i-th 4 KiB Blob of a populated data dir.
func restoreBlob(i int) []byte {
	data := bytes.Repeat([]byte{0xD1}, 4096)
	binary.LittleEndian.PutUint64(data, uint64(i))
	return data
}

// populate writes mib MiB of 4 KiB Blobs into a fresh data dir under
// dir, with one Tree over each 64 of them; memos names a thunk and an
// encode memo for each Tree. It returns the Blob and Tree handles.
func populate(tb testing.TB, dir string, mib int, memos bool) (blobs, trees []core.Handle) {
	tb.Helper()
	d, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < mib<<8; i++ {
		data := restoreBlob(i)
		h := core.BlobHandle(data)
		if err := d.PersistBlob(h, data); err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, h)
		if len(blobs)%64 != 0 {
			continue
		}
		entries := blobs[len(blobs)-64:]
		th := core.TreeHandle(entries)
		if err := d.PersistTree(th, entries); err != nil {
			tb.Fatal(err)
		}
		trees = append(trees, th)
		if !memos {
			continue
		}
		thunk, _ := core.Identification(th)
		enc, _ := core.Strict(thunk)
		if err := d.PersistThunkResult(thunk, th); err != nil {
			tb.Fatal(err)
		}
		if err := d.PersistEncodeResult(enc, th); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	return blobs, trees
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRestoreLoadsMemosNotObjects pins restart by counts. Attach over a
// populated 64 MiB data dir restores every memo entry and no object: the
// store holds 0 resident bytes, RestoreStats counts the index's objects,
// and the heap grows by at most a tenth of the data dir. Reading one
// object makes exactly that object resident.
func TestRestoreLoadsMemosNotObjects(t *testing.T) {
	const mib = 64
	dir := t.TempDir()
	blobs, trees := populate(t, dir, mib, true)

	before := heapInUse()
	st := store.New()
	d, rs, err := Attach(dir, Options{Fsync: FsyncNever}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	grew := int64(heapInUse()) - int64(before)
	if limit := int64(mib<<20) / 10; grew > limit {
		t.Errorf("heap grew %.1f MiB over Attach of a %d MiB data dir, want at most %.1f MiB",
			float64(grew)/(1<<20), mib, float64(limit)/(1<<20))
	}
	if st.Len() != 0 || st.TotalBytes() != 0 {
		t.Fatalf("store holds %d objects, %d bytes after Attach; want 0 and 0", st.Len(), st.TotalBytes())
	}
	ds := d.Stats()
	if rs.Blobs != len(blobs) || rs.Trees != len(trees) || rs.Blobs+rs.Trees != ds.Objects {
		t.Fatalf("restore counted %d blobs, %d trees; want %d and %d, the index's %d objects",
			rs.Blobs, rs.Trees, len(blobs), len(trees), ds.Objects)
	}
	if rs.Thunks != len(trees) || rs.Encodes != len(trees) || rs.SkippedMemos != 0 {
		t.Fatalf("restore = %+v, want %d thunk and %d encode memos, none skipped", rs, len(trees), len(trees))
	}
	for _, th := range trees {
		thunk, _ := core.Identification(th)
		enc, _ := core.Strict(thunk)
		if r, ok := st.ThunkResult(thunk); !ok || r != th {
			t.Fatalf("thunk memo of %v restored as %v, %v", th, r, ok)
		}
		if r, ok := st.EncodeResult(enc); !ok || r != th {
			t.Fatalf("encode memo of %v restored as %v, %v", th, r, ok)
		}
	}

	if got, err := st.Blob(blobs[7]); err != nil || !bytes.Equal(got, restoreBlob(7)) {
		t.Fatalf("Blob after restart = %v", err)
	}
	if st.Len() != 1 || st.TotalBytes() != 4096 {
		t.Fatalf("after one read: %d objects, %d bytes resident; want 1 and 4096", st.Len(), st.TotalBytes())
	}
	if entries, err := st.Tree(trees[0]); err != nil || len(entries) != 64 || st.Len() != 2 {
		t.Fatalf("Tree after restart = %d entries, %v; %d resident, want 2", len(entries), err, st.Len())
	}
	if got := d.Stats().Appends; got != 0 {
		t.Fatalf("restart wrote %d records back", got)
	}
}

// BenchmarkAttach reopens a populated data dir of 4 KiB Blobs, with a Tree
// over every 64: the daemon's boot path from Open to a store ready to
// serve. heap-B is the heap the attached store retains.
func BenchmarkAttach(b *testing.B) {
	for _, mib := range []int{16, 64, 256} {
		dir := b.TempDir()
		populate(b, dir, mib, false)
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			var grew int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := heapInUse()
				st := store.New()
				b.StartTimer()
				d, _, err := Attach(dir, Options{Fsync: FsyncNever}, st)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				grew += int64(heapInUse()) - int64(before)
				runtime.KeepAlive(st)
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(grew)/float64(b.N), "heap-B")
		})
	}
}
