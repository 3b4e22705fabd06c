package gateway

import (
	"bytes"
	"context"
	"testing"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/storage"
)

// TestGatewayTierWarmColdLFCRestart is the tiered-storage acceptance
// test, end to end through the HTTP gateway. An edge node with a storage
// tier (LFC smaller than the object universe, over a directory remote)
// takes blob uploads, demotes them all once idle, and must still serve
// every one over GET /v1/blobs via the fetcher's tier hop. The holding
// node then "restarts": a fresh node + gateway with an empty hot store
// over the same remote directory. Re-opened on the surviving cache
// directory (warm) it serves the resident part of the universe from
// cache files; on an empty directory (cold) every read pays the remote
// tier. Demoted data survives the restart either way; the warm cache
// proves it kept its files.
func TestGatewayTierWarmColdLFCRestart(t *testing.T) {
	ctx := context.Background()
	remoteDir := t.TempDir()
	lfcDir := t.TempDir()
	const (
		objects   = 4
		blobBytes = 1024
		budget    = 2*blobBytes + 200 // holds 2 of the 4 objects
	)

	newTier := func(cacheDir string) *storage.LFC {
		t.Helper()
		remote, err := storage.NewDir(remoteDir)
		if err != nil {
			t.Fatal(err)
		}
		lfc, err := storage.NewLFC(cacheDir, budget, remote)
		if err != nil {
			t.Fatal(err)
		}
		return lfc
	}

	payloads := make([][]byte, objects)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, blobBytes)
	}

	// Phase 1: upload, demote, and fetch back through the same gateway.
	// The tier is attached with no demotion loop, so the manual
	// DemotePass below is the only sweep — residency stays deterministic.
	const idle = 10 * time.Millisecond
	edge := cluster.NewNode("edge", cluster.NodeOptions{Cores: 1, ClientOnly: true})
	edge.SetTier(newTier(lfcDir), 0)
	srv, c := newTestGateway(t, Options{Backend: edge, CacheEntries: 16})
	handles := make([]core.Handle, objects)
	for i, p := range payloads {
		h, err := c.PutBlob(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// Wait out the idle window, then demote every hot copy.
	time.Sleep(3 * idle)
	deadline := time.Now().Add(5 * time.Second)
	for {
		edge.DemotePass(ctx, time.Now().Add(-idle))
		if ss := srv.Stats().Storage; ss != nil && ss.Demoted >= objects {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("demotion never completed: %+v", srv.Stats().Storage)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Demoted objects are still served — the fetcher's final tier hop.
	// Reading in upload order also leaves the cache's resident set in a
	// known state: the last two objects read are the two that fit.
	for i, h := range handles {
		data, err := c.BlobBytes(ctx, h)
		if err != nil {
			t.Fatalf("blob %d after demotion: %v", i, err)
		}
		if !bytes.Equal(data, payloads[i]) {
			t.Fatalf("blob %d corrupted after demotion round trip", i)
		}
	}
	if ss := srv.Stats().Storage; ss == nil || ss.TierFetches == 0 {
		t.Fatalf("no tier fetches recorded after reading demoted objects: %+v", ss)
	}
	edge.Close()

	// restart spins up a fresh holding node (empty hot store) + gateway
	// over the given cache dir and reads the whole universe back. Reads
	// run in reverse upload order so the resident entries are touched
	// (and so hit) before the non-resident fills start evicting.
	restart := func(cacheDir string) *storage.Stats {
		t.Helper()
		node := cluster.NewNode("edge-restarted", cluster.NodeOptions{Cores: 1, ClientOnly: true})
		node.SetTier(newTier(cacheDir), 0)
		defer node.Close()
		srv, c := newTestGateway(t, Options{Backend: node, CacheEntries: 16})
		for i := objects - 1; i >= 0; i-- {
			data, err := c.BlobBytes(ctx, handles[i])
			if err != nil {
				t.Fatalf("restart(%s): blob %d: %v", cacheDir, i, err)
			}
			if !bytes.Equal(data, payloads[i]) {
				t.Fatalf("restart(%s): blob %d corrupted", cacheDir, i)
			}
		}
		ss := srv.Stats().Storage
		if ss == nil {
			t.Fatal("restarted gateway reports no storage stats")
		}
		return ss
	}

	warm := restart(lfcDir)      // the cache directory phase 1 filled
	cold := restart(t.TempDir()) // an empty one

	if warm.LFCHits == 0 {
		t.Errorf("warm restart served no reads from re-adopted cache files: %+v", warm)
	}
	if warm.RemoteGets >= cold.RemoteGets {
		t.Errorf("warm restart paid %d remote reads, cold %d — the surviving cache bought nothing",
			warm.RemoteGets, cold.RemoteGets)
	}
	if cold.LFCHits != 0 {
		t.Errorf("cold restart somehow hit an empty cache %d times", cold.LFCHits)
	}
}
