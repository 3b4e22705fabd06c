package daemon

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// TestParseRejects: every row is a command line that used to boot into a
// silently broken daemon, with the message that now refuses it.
func TestParseRejects(t *testing.T) {
	for _, row := range []struct {
		daemon, args, want string
	}{
		{Fixpoint, "-fsync sometimes", `unknown fsync policy "sometimes"`},
		{Fixgate, "-fsync sometimes", `unknown fsync policy "sometimes"`},
		{Fixpoint, "-replicas 0", "at least 1"},
		{Fixgate, "-peers w:7600 -replicas -2", "at least 1"},
		{Fixpoint, "-hb-interval 2s -hb-timeout 500ms", "every idle peer would be evicted"},
		{Fixgate, "-remote-dir /mnt/bucket", "needs cluster mode"},
		{Fixgate, "-remote-dir /mnt/bucket -data-dir /var/lib/fixgate", "needs cluster mode"},
		{Fixgate, "-gw-peers gw-b:7680 -async-workers 0", "need -async-workers > 0"},
		{Fixgate, "-gw-listen :7680 -async-workers 0", "need -async-workers > 0"},
		{Fixpoint, "-gc-budget-mib -1", "must not be negative"},
		{Fixgate, "-lfc-budget-mib -512", "must not be negative"},
		{Fixpoint, "-remote-dir /mnt/bucket -demote-after 1ns", "0 (off) or at least 2ns"},
		{Fixpoint, "-demote-after -1s", "0 (off) or at least 2ns"},
		{Fixgate, "-storage hybrid", "flag provided but not defined"},
		{Fixgate, "-gw-id gw-a", "flag provided but not defined"},
		{Fixpoint, "-gw-listen :7680", "flag provided but not defined"},
	} {
		_, err := Parse(row.daemon, strings.Fields(row.args))
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s %s: err = %v, want one containing %q", row.daemon, row.args, err, row.want)
		}
	}
}

// TestParseAccepts pins what Validate derives from an accepted command
// line: the storage mode from (-remote-dir, -data-dir), the cache
// directory, and the typed fsync policy.
func TestParseAccepts(t *testing.T) {
	tmp := os.TempDir()
	for _, row := range []struct {
		daemon, args, mode, cacheDir string
	}{
		{Fixpoint, "-id node-a", "local", filepath.Join(tmp, "fixpoint-lfc-node-a")},
		{Fixpoint, "-id node-a -data-dir /d", "local", "/d/lfc"},
		{Fixpoint, "-id node-a -remote-dir /r", "remote", filepath.Join(tmp, "fixpoint-lfc-node-a")},
		{Fixpoint, "-id node-a -remote-dir /r -data-dir /d", "hybrid", "/d/lfc"},
		{Fixgate, "-id gw/a:1 -peers w:7600 -remote-dir /r", "remote", filepath.Join(tmp, "fixgate-lfc-gw_a_1")},
		{Fixgate, "-id gw-a -cluster-listen :7601 -remote-dir /r -data-dir /d", "hybrid", "/d/lfc"},
		{Fixgate, "-hb-interval 0 -hb-timeout 3s -gw-listen :7680 -fsync always", "local", ""},
	} {
		c, err := Parse(row.daemon, strings.Fields(row.args))
		if err != nil {
			t.Errorf("%s %s: %v", row.daemon, row.args, err)
			continue
		}
		if got := c.StorageMode(); got != row.mode {
			t.Errorf("%s %s: storage mode %q, want %q", row.daemon, row.args, got, row.mode)
		}
		if got := c.CacheDir(); row.cacheDir != "" && got != row.cacheDir {
			t.Errorf("%s %s: cache dir %q, want %q", row.daemon, row.args, got, row.cacheDir)
		}
	}
	c, err := Parse(Fixgate, []string{"-fsync", "always"})
	if err != nil || c.Fsync != durable.FsyncAlways {
		t.Errorf("-fsync always parsed to %v (err %v)", c.Fsync, err)
	}
}

// TestDerivedIdentity: a process has one identity, and the default is
// distinct per host and listen address — OPERATIONS.md's two-gateway
// runbook, which names no IDs, must yield two different ones (sharing
// one made every worker drop the first gateway's link for the second's),
// and so different cache directories.
func TestDerivedIdentity(t *testing.T) {
	host, err := os.Hostname()
	if err != nil {
		t.Skip(err)
	}
	a, err := Parse(Fixgate, strings.Fields("-listen :7670 -gw-listen :7680 -peers w:7600"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(Fixgate, strings.Fields("-listen :7671 -gw-listen :7681 -gw-peers 127.0.0.1:7680 -peers w:7600"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != host+":7670" || b.ID != host+":7671" {
		t.Errorf("derived IDs %q and %q, want %q and %q", a.ID, b.ID, host+":7670", host+":7671")
	}
	if a.CacheDir() == b.CacheDir() {
		t.Errorf("two gateways on one host share the cache directory %s", a.CacheDir())
	}
	w, err := Parse(Fixpoint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.ID != host+":7600" {
		t.Errorf("fixpoint's derived ID %q, want %q", w.ID, host+":7600")
	}
	if c, _ := Parse(Fixgate, []string{"-id", "gw-a"}); c.ID != "gw-a" {
		t.Errorf("-id gw-a gave ID %q", c.ID)
	}
}

// TestServeClosesInOrder: cancelling Serve's context runs every closer,
// in order, and the first one stopping serve is not a failure. A serve
// that fails on its own still gets the closers, and its error comes back.
func TestServeClosesInOrder(t *testing.T) {
	var ran []int
	stopped := make(chan struct{})
	serve := func() error {
		<-stopped
		return errors.New("accept: listener closed")
	}
	closer := func(i int) func() error {
		return func() error {
			if i == 1 {
				close(stopped)
			}
			ran = append(ran, i)
			return nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Serve(ctx, serve, closer(1), closer(2), closer(3)); err != nil {
		t.Fatalf("Serve after cancel = %v, want nil", err)
	}
	if want := []int{1, 2, 3}; !slices.Equal(ran, want) {
		t.Fatalf("closers ran %v, want %v", ran, want)
	}

	ran = nil
	bind := errors.New("listen: address in use")
	err := Serve(context.Background(), func() error { return bind }, closer(2), closer(3))
	if !errors.Is(err, bind) {
		t.Fatalf("Serve of a failing serve = %v, want %v", err, bind)
	}
	if want := []int{2, 3}; !slices.Equal(ran, want) {
		t.Fatalf("closers ran %v after a failed serve, want %v", ran, want)
	}
}

// gcWorker boots a worker the way cmd/fixpoint does, on dataDir with a
// 1 MiB GC budget and, when remoteDir is set, a tier over it with no
// cache and no demotion loop: every DemotePass is the test's.
func gcWorker(t *testing.T, dataDir, remoteDir string) (*cluster.Node, *durable.Store) {
	t.Helper()
	args := []string{"-id", "w", "-data-dir", dataDir, "-gc-budget-mib", "1", "-fsync", "never", "-demote-after", "0", "-lfc-budget-mib", "0"}
	if remoteDir != "" {
		args = append(args, "-remote-dir", remoteDir)
	}
	c, err := Parse(Fixpoint, args)
	if err != nil {
		t.Fatal(err)
	}
	node := c.NewNode()
	remote, err := c.AttachTier(node)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := c.AttachDurable(node.Store(), remote, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close(); dur.Close() })
	return node, dur
}

// putBlobs stores n distinct 4 KiB Blobs tagged tag on node.
func putBlobs(node *cluster.Node, tag byte, n int) []core.Handle {
	hs := make([]core.Handle, n)
	for i := range hs {
		data := bytes.Repeat([]byte{tag, byte(i), byte(i >> 8), 0xC5}, 1024)
		hs[i] = node.PutBlobOwned(core.BlobHandle(data), data)
	}
	return hs
}

// demoteAll demotes every object resident on node and returns how many.
func demoteAll(node *cluster.Node) int {
	time.Sleep(time.Millisecond)
	return node.DemotePass(context.Background(), time.Now())
}

// TestGCRuleWithoutTierOnlyCompacts: without -remote-dir, a GC that the
// budget triggers drops nothing, even records that no memo reaches.
//
// Every record stays live and the packs hold no superseded bytes, so the
// passes leave the pack files as the appends wrote them: the one first
// pack, at the size of its magic and every record once.
func TestGCRuleWithoutTierOnlyCompacts(t *testing.T) {
	dataDir := t.TempDir()
	node, dur := gcWorker(t, dataDir, "")
	hs := putBlobs(node, 1, 400) // 1.6 MiB, over the 1 MiB budget
	st := dur.Stats()
	if st.GCPasses == 0 || st.GCDropped != 0 || st.Objects != len(hs) {
		t.Fatalf("GC passes %d, dropped %d, %d objects kept; want ≥ 1, 0 and %d", st.GCPasses, st.GCDropped, st.Objects, len(hs))
	}
	const record = 5 + 32 + 4096 + 4 // header, handle, payload, CRC
	want := map[string]int64{"00000000.pack": 8 + int64(len(hs))*record}
	if got := packFiles(t, dataDir); !maps.Equal(got, want) {
		t.Fatalf("pack files after %d GC passes = %v, want %v, as the appends left them", st.GCPasses, got, want)
	}
}

// packFiles maps each pack file under dataDir to its size.
func packFiles(t *testing.T, dataDir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "packs"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]int64)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = info.Size()
	}
	return files
}

// TestGCRuleWithTierDropsOnlyRemoteHeld: with a tier, the GC that the
// budget triggers drops exactly the demoted records no memo reaches;
// each stays readable, from the remote, and the record a memo reaches
// stays in the packs. The GC runs inside a write-through with the
// daemon's liveness, so it completing at all shows no deadlock on the
// durable store's lock.
func TestGCRuleWithTierDropsOnlyRemoteHeld(t *testing.T) {
	node, dur := gcWorker(t, t.TempDir(), t.TempDir())
	demoted := putBlobs(node, 2, 64)
	memo, _ := core.Identification(demoted[0])
	node.Store().SetThunkResult(memo, demoted[0])
	if got := demoteAll(node); got != len(demoted) {
		t.Fatalf("DemotePass = %d, want %d", got, len(demoted))
	}
	fresh := putBlobs(node, 3, 300) // crosses the 1 MiB budget
	st := dur.Stats()
	if st.GCPasses == 0 || st.GCDropped != uint64(len(demoted)-1) || st.Objects != len(fresh)+1 {
		t.Fatalf("GC passes %d, dropped %d, %d objects kept; want ≥ 1, %d and %d",
			st.GCPasses, st.GCDropped, st.Objects, len(demoted)-1, len(fresh)+1)
	}
	if !dur.Contains(demoted[0]) {
		t.Fatal("GC dropped the demoted record a memo reaches")
	}
	for i, h := range demoted {
		if _, err := node.ObjectBytes(context.Background(), h); err != nil {
			t.Fatalf("demoted object %d after GC: %v", i, err)
		}
	}
	if ss := node.StorageStats(); ss.TierFetches != uint64(len(demoted)-1) || ss.RemoteGets != uint64(len(demoted)-1) {
		t.Fatalf("TierFetches = %d, RemoteGets = %d; want %d each (one per dropped record)", ss.TierFetches, ss.RemoteGets, len(demoted)-1)
	}
}

// TestGCRuleTierReadBackAppendsNothing: with TestGCRuleWithTierDropsOnlyRemoteHeld's
// setup, reading the dropped records back from the tier makes them
// resident but appends no pack record, so the next GC pass has none of
// them to drop again.
func TestGCRuleTierReadBackAppendsNothing(t *testing.T) {
	node, dur := gcWorker(t, t.TempDir(), t.TempDir())
	demoted := putBlobs(node, 7, 64)
	memo, _ := core.Identification(demoted[0])
	node.Store().SetThunkResult(memo, demoted[0])
	if got := demoteAll(node); got != len(demoted) {
		t.Fatalf("DemotePass = %d, want %d", got, len(demoted))
	}
	putBlobs(node, 8, 300) // crosses the 1 MiB budget
	before := dur.Stats()
	if before.GCDropped != uint64(len(demoted)-1) {
		t.Fatalf("first GC dropped %d records, want %d", before.GCDropped, len(demoted)-1)
	}
	for i, h := range demoted {
		if _, err := node.ObjectBytes(context.Background(), h); err != nil {
			t.Fatalf("demoted object %d after GC: %v", i, err)
		}
	}
	if got := dur.Stats().PackBytes; got != before.PackBytes {
		t.Fatalf("reading %d objects back from the tier grew the packs %d -> %d bytes, want unchanged", len(demoted)-1, before.PackBytes, got)
	}
	putBlobs(node, 9, 100) // grows the packs past the next pass's floor
	after := dur.Stats()
	if after.GCPasses <= before.GCPasses {
		t.Fatalf("GC passes %d after more puts, want more than %d", after.GCPasses, before.GCPasses)
	}
	if again := after.GCDropped - before.GCDropped; again != 0 {
		t.Fatalf("the next GC dropped %d records, want 0: a tier read-back went into the packs", again)
	}
}

// TestGCRuleAfterLazyRestart: a worker restarted on its data dir holds no
// object in RAM, and its first GC still drops only what the remote holds.
// Under a liveness of "resident in RAM" it would drop every record no
// memo reaches.
func TestGCRuleAfterLazyRestart(t *testing.T) {
	dataDir, remoteDir := t.TempDir(), t.TempDir()
	node, dur := gcWorker(t, dataDir, remoteDir)
	demoted := putBlobs(node, 4, 32)
	if got := demoteAll(node); got != len(demoted) {
		t.Fatalf("DemotePass = %d, want %d", got, len(demoted))
	}
	kept := putBlobs(node, 5, 32)
	node.Close()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	node, dur = gcWorker(t, dataDir, remoteDir)
	if got := node.Store().Len(); got != 0 {
		t.Fatalf("restarted worker holds %d objects in RAM, want 0", got)
	}
	putBlobs(node, 6, 300) // crosses the 1 MiB budget
	if st := dur.Stats(); st.GCPasses == 0 || st.GCDropped != uint64(len(demoted)) {
		t.Fatalf("GC passes %d, dropped %d; want ≥ 1 and %d (the records the remote holds)", st.GCPasses, st.GCDropped, len(demoted))
	}
	for i, h := range kept {
		if !dur.Contains(h) {
			t.Fatalf("GC dropped record %d, which the remote does not hold", i)
		}
	}
}
