package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"fixgo/internal/core"
)

// TestStreamedBlobUpload pins the streaming upload path: payloads from
// empty through literal-sized up to several read-chunks long all yield
// the exact content-addressed handle of a one-shot BlobHandle, and the
// bytes survive the round trip. Sizes straddle the 256 KiB chunk
// boundary so multi-chunk hashing is exercised.
func TestStreamedBlobUpload(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 16})
	ctx := context.Background()
	sizes := []int{0, 1, core.MaxLiteral, core.MaxLiteral + 1, 4 << 10, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 7}
	for _, size := range sizes {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*13 + size)
		}
		h, err := c.PutBlob(ctx, data)
		if err != nil {
			t.Fatalf("size %d: PutBlob: %v", size, err)
		}
		if want := core.BlobHandle(data); h != want {
			t.Fatalf("size %d: server handle %v != client-side BlobHandle %v", size, h, want)
		}
		back, err := c.BlobBytes(ctx, h)
		if err != nil {
			t.Fatalf("size %d: BlobBytes: %v", size, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("size %d: round-tripped bytes differ", size)
		}
	}
}

// TestStreamedBlobUploadChunkedEncoding covers uploads with no declared
// Content-Length (chunked transfer encoding): the streaming reader must
// still produce the right handle and enforce the byte bound.
func TestStreamedBlobUploadChunkedEncoding(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 16, MaxBlobBytes: 1 << 20})
	data := bytes.Repeat([]byte("stream"), 100_000) // 600 KB, > 2 chunks

	post := func(payload []byte) *http.Response {
		t.Helper()
		// iotest-style reader that hides Len() so the client sends
		// Transfer-Encoding: chunked with ContentLength unset.
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/blobs", onlyReader{bytes.NewReader(payload)})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(data)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked upload: status %d", resp.StatusCode)
	}
	var reply HandleReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	h, err := parseHandle(reply.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.BlobHandle(data); h != want {
		t.Fatalf("chunked upload handle %v != BlobHandle %v", h, want)
	}

	// Over the limit with no Content-Length: the stream is cut at the
	// bound with 413, not slurped.
	over := post(bytes.Repeat([]byte("y"), 1<<20+1))
	defer over.Body.Close()
	if over.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked upload: status %d, want 413", over.StatusCode)
	}
}

// onlyReader strips every optional interface from a reader so net/http
// cannot discover the payload length.
type onlyReader struct{ r *bytes.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// TestClientBlobDownloadBound pins the SDK-side cap: a blob whose
// declared size exceeds the client's limit fails with a typed
// *BlobTooLargeError before the request is even sent, and a misbehaving
// gateway that streams more bytes than the handle declares is cut off at
// the limit with the same typed error instead of an unbounded ReadAll.
func TestClientBlobDownloadBound(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 16})
	ctx := context.Background()

	data := bytes.Repeat([]byte("z"), 4<<10)
	h, err := c.PutBlob(ctx, data)
	if err != nil {
		t.Fatal(err)
	}

	// A client capped below the blob's declared size refuses up front.
	small := NewClient(c.base, WithHTTPClient(c.hc), WithMaxBlobBytes(1<<10))
	if _, err := small.BlobBytes(ctx, h); !IsBlobTooLarge(err) {
		t.Fatalf("undersized client BlobBytes err = %v, want BlobTooLargeError", err)
	}
	var tl *BlobTooLargeError
	if _, err := small.BlobBytes(ctx, h); !errors.As(err, &tl) || tl.Limit != 1<<10 {
		t.Fatalf("BlobTooLargeError from undersized client = %v", err)
	}

	// A generously capped client still succeeds.
	big := NewClient(c.base, WithHTTPClient(c.hc), WithMaxBlobBytes(1<<20))
	back, err := big.BlobBytes(ctx, h)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("capped client round trip = (%d bytes, %v)", len(back), err)
	}

	// Misbehaving gateway: 200 OK with far more bytes than the handle
	// declares. The LimitReader bound converts the flood into the typed
	// error instead of buffering it all.
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		junk := bytes.Repeat([]byte("A"), 64<<10)
		for i := 0; i < 64; i++ { // 4 MiB total
			if _, err := w.Write(junk); err != nil {
				return
			}
		}
	}))
	defer lying.Close()
	liar := NewClient(lying.URL, WithMaxBlobBytes(1<<20))
	if _, err := liar.BlobBytes(ctx, h); !IsBlobTooLarge(err) {
		t.Fatalf("lying gateway BlobBytes err = %v, want BlobTooLargeError", err)
	}
}
