package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fixgo/internal/core"
)

// diskStub is a Persister over a map: the disk tier without the disk. It
// counts object reads and object writes.
type diskStub struct {
	mu      sync.Mutex
	objects map[core.Handle][]byte
	reads   atomic.Int64
	writes  atomic.Int64
}

func newDiskStub() *diskStub { return &diskStub{objects: make(map[core.Handle][]byte)} }

func (d *diskStub) put(h core.Handle, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.objects[h] = bytes.Clone(data)
}

func (d *diskStub) PersistBlob(h core.Handle, data []byte) error {
	d.writes.Add(1)
	d.put(h, data)
	return nil
}

func (d *diskStub) PersistTree(h core.Handle, entries []core.Handle) error {
	d.writes.Add(1)
	d.put(h, core.TreeBytes(entries))
	return nil
}

func (*diskStub) PersistThunkResult(core.Handle, core.Handle) error  { return nil }
func (*diskStub) PersistEncodeResult(core.Handle, core.Handle) error { return nil }

func (d *diskStub) Contains(h core.Handle) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.objects[h]
	return ok
}

func (d *diskStub) ReadObject(h core.Handle) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.objects[h]
	if !ok {
		return nil, fmt.Errorf("%v not on disk", h)
	}
	d.reads.Add(1)
	return bytes.Clone(data), nil
}

func (d *diskStub) ForEachObject(fn func(core.Handle)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for h := range d.objects {
		fn(h)
	}
}

// TestReadThroughOnMiss pins the one way an object comes back from disk:
// on a RAM miss, Blob, Tree, ObjectBytes and Pin read it through the
// Persister, once, and make exactly that object resident, without writing
// it back. Contains answers from the Persister's index without a read. A
// record whose bytes do not match its handle is never served. ForEach
// visits resident objects only; ForEachHeld visits every held one once.
func TestReadThroughOnMiss(t *testing.T) {
	disk := newDiskStub()
	blob := bytes.Repeat([]byte{0xB1}, 100)
	b := core.BlobHandle(blob)
	pinned := bytes.Repeat([]byte{0xB2}, 100)
	p := core.BlobHandle(pinned)
	entries := []core.Handle{b, core.LiteralU64(9)}
	tr := core.TreeHandle(entries)
	disk.put(b, blob)
	disk.put(p, pinned)
	disk.put(tr, core.TreeBytes(entries))
	forged := core.BlobHandle(bytes.Repeat([]byte{0xB3}, 100))
	disk.put(forged, bytes.Repeat([]byte{0xB4}, 100))
	missing := core.BlobHandle(bytes.Repeat([]byte{0xB5}, 100))

	s := New()
	s.SetPersister(disk)
	for _, h := range []core.Handle{b, p, tr, forged} {
		if !s.Contains(h) {
			t.Fatalf("Contains(%v) = false for an object on disk", h)
		}
	}
	check := func(step string, reads int64, resident int) {
		t.Helper()
		if got := disk.reads.Load(); got != reads {
			t.Fatalf("%s: %d disk reads, want %d", step, got, reads)
		}
		if got := s.Len(); got != resident {
			t.Fatalf("%s: %d objects resident, want %d", step, got, resident)
		}
	}
	check("Contains", 0, 0)

	if got, err := s.Blob(b); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Blob = %v", err)
	}
	check("first Blob", 1, 1)
	if s.TotalBytes() != uint64(len(blob)) {
		t.Fatalf("TotalBytes = %d, want %d", s.TotalBytes(), len(blob))
	}
	if _, err := s.Blob(b); err != nil {
		t.Fatal(err)
	}
	check("second Blob", 1, 1)

	got, err := s.Tree(tr)
	if err != nil || len(got) != 2 || got[0] != b || cap(got) != 2 {
		t.Fatalf("Tree = %v (cap %d), %v", got, cap(got), err)
	}
	check("Tree", 2, 2)

	if !s.Evict(b) {
		t.Fatal("Evict of a resident blob failed")
	}
	if got, err := s.ObjectBytes(b); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("ObjectBytes after Evict = %v", err)
	}
	check("ObjectBytes after Evict", 3, 2)

	if !s.Pin(p) {
		t.Fatal("Pin of an object on disk reports it missing")
	}
	check("Pin", 4, 3)
	if s.Evict(p) {
		t.Fatal("a pinned object read through was evicted")
	}
	s.Unpin(p)

	var nf *ErrNotFound
	if _, err := s.Blob(forged); !errors.As(err, &nf) {
		t.Fatalf("Blob of a forged record = %v, want ErrNotFound", err)
	}
	if _, err := s.Blob(missing); !errors.As(err, &nf) || s.Contains(missing) || s.Pin(missing) {
		t.Fatalf("missing object: Blob err %v, Contains %v", err, s.Contains(missing))
	}
	s.Unpin(missing)
	check("forged and missing", 5, 3)
	if got := disk.writes.Load(); got != 0 {
		t.Fatalf("%d objects written back to disk, want 0", got)
	}

	fresh := s.PutBlob(bytes.Repeat([]byte{0xB6}, 100))
	s.SetPersister(nil) // fresh stays resident only
	s.SetPersister(disk)
	disk.mu.Lock()
	delete(disk.objects, fresh)
	disk.mu.Unlock()
	resident, held := 0, map[core.Handle]int{}
	s.ForEach(func(core.Handle, uint64) { resident++ })
	s.ForEachHeld(func(h core.Handle) { held[h]++ })
	if resident != s.Len() || resident != 4 {
		t.Fatalf("ForEach visited %d objects, want the %d resident", resident, s.Len())
	}
	for _, h := range []core.Handle{b, p, tr, forged, fresh} {
		if held[h] != 1 {
			t.Fatalf("ForEachHeld visited %v %d times, want once", h, held[h])
		}
	}
	if len(held) != 5 {
		t.Fatalf("ForEachHeld visited %d objects, want 5", len(held))
	}
}

// TestReadThroughRacesEvictAndPin: readers fault objects in through the
// Persister while other goroutines evict them and pin them. Every read
// returns the object's bytes, and an object is never evicted while a Pin
// that reported it resident holds it.
func TestReadThroughRacesEvictAndPin(t *testing.T) {
	disk := newDiskStub()
	const objects = 16
	handles := make([]core.Handle, objects)
	payloads := make([][]byte, objects)
	for i := range handles {
		if i%2 == 0 {
			payloads[i] = bytes.Repeat([]byte{byte(i), 0x7E}, 60+i)
			handles[i] = core.BlobHandle(payloads[i])
		} else {
			entries := []core.Handle{handles[i-1], core.LiteralU64(uint64(i))}
			payloads[i] = core.EncodeTree(entries)
			handles[i] = core.TreeHandle(entries)
		}
		disk.put(handles[i], payloads[i])
	}
	s := New()
	s.SetPersister(disk)

	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (g*5 + i) % objects
				h := handles[idx]
				switch g % 3 {
				case 0:
					got, err := s.ObjectBytes(h)
					if err == nil && !bytes.Equal(got, payloads[idx]) {
						err = errors.New("wrong bytes")
					}
					if err != nil {
						errs <- fmt.Errorf("reader %d object %d: %w", g, idx, err)
						return
					}
				case 1:
					s.Evict(h)
				case 2:
					if !s.Pin(h) {
						errs <- fmt.Errorf("pinner %d: object %d not held", g, idx)
						return
					}
					evicted := s.Evict(h)
					s.Unpin(h)
					if evicted {
						errs <- fmt.Errorf("pinner %d: object %d evicted while pinned", g, idx)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := disk.writes.Load(); got != 0 {
		t.Fatalf("%d objects written back to disk, want 0", got)
	}
}
