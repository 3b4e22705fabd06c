package s3sim

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
)

func TestPutGet(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestMissingKeyCostsARoundTrip(t *testing.T) {
	s := New(Config{Latency: 20 * time.Millisecond})
	start := time.Now()
	_, err := s.Get(context.Background(), "nope")
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("missing key should still cost the latency")
	}
}

func TestLatency(t *testing.T) {
	s := New(Config{Latency: 30 * time.Millisecond})
	ctx := context.Background()
	s.Put(ctx, "k", []byte("v"))
	start := time.Now()
	if _, err := s.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("get took %v, want ≥ ~30ms", d)
	}
}

func TestParallelRequestsOverlapLatency(t *testing.T) {
	// Like S3: independent requests pay latency concurrently.
	s := New(Config{Latency: 40 * time.Millisecond})
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		s.Put(ctx, string(rune('a'+i)), []byte("v"))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Get(ctx, string(rune('a'+i)))
		}(i)
	}
	wg.Wait()
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("16 parallel 40ms gets took %v; latency must overlap", d)
	}
}

func TestAggregateBandwidth(t *testing.T) {
	// 1 MB/s: four parallel 25KB gets must take ≥ ~100ms in total.
	s := New(Config{Bandwidth: 1 << 20})
	ctx := context.Background()
	data := bytes.Repeat([]byte{1}, 25<<10)
	for i := 0; i < 4; i++ {
		s.Put(ctx, string(rune('a'+i)), data)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Get(ctx, string(rune('a'+i)))
		}(i)
	}
	wg.Wait()
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("aggregate bandwidth not enforced: %v", d)
	}
}

func TestContextCancellation(t *testing.T) {
	// At 1 B/s the stored object's transfer takes 17 minutes; a missing
	// key pays the latency instead.
	s := New(Config{Bandwidth: 1})
	if err := s.Put(context.Background(), "k", make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want the context's deadline", err)
	}
	missing := New(Config{Latency: time.Hour})
	if _, err := missing.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get of a missing key = %v, want the context's deadline", err)
	}
}

func TestHandleFetcher(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	data := bytes.Repeat([]byte("chunk"), 100)
	h := core.BlobHandle(data)
	if err := s.PutHandle(ctx, h, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Fetch(ctx, h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch: %d bytes, %v", len(got), err)
	}
	// Ref-tagged handles resolve to the same key.
	got, err = s.Fetch(ctx, h.AsRef())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch via ref: %v", err)
	}
}
