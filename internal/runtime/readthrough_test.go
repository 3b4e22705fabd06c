package runtime

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/store"
)

// TestFetchFallsBackOnCorruptPackRecord: an object whose pack record is
// corrupted after the packs were opened is still indexed, so the store
// Contains it, but reading it back fails. The engine then treats it as a
// miss and fetches it, once, instead of failing the eval.
func TestFetchFallsBackOnCorruptPackRecord(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	packs, _, err := durable.Attach(dir, durable.Options{Fsync: durable.FsyncNever}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer packs.Close()
	data := bytes.Repeat([]byte("pack"), 20)
	h := st.PutBlob(data)
	if !st.Evict(h) {
		t.Fatal("Evict of an unpinned Blob failed")
	}
	corruptRecord(t, dir, data)
	if !st.Contains(h) {
		t.Fatal("the packs no longer index the corrupted record")
	}
	if _, err := st.Blob(h); err == nil {
		t.Fatal("a corrupted record was served")
	}

	f := &mapFetcher{}
	remoteBlob(f, data)
	reg := NewRegistry()
	reg.RegisterFunc("len", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		return api.CreateBlob(core.LiteralU64(uint64(len(b))).LiteralData()), nil
	})
	e := New(st, Options{Cores: 2, Registry: reg, Fetcher: f})
	if got := evalU64(t, e, strictApp(t, st, core.NativeFunctionBlob("len"), h)); got != 80 {
		t.Fatalf("len = %d, want 80", got)
	}
	if got := f.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}
	if got, err := st.Blob(h); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Blob after the fetch = %q, %v; want the fetched bytes", got, err)
	}
}

// corruptRecord flips one byte of data where a pack under dir holds it.
func corruptRecord(t *testing.T, dir string, data []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "packs", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(raw, data); i >= 0 {
			raw[i] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no pack holds the record")
}
