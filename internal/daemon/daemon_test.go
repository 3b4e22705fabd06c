package daemon

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
