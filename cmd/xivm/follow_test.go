package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xivm/internal/client"
	"xivm/internal/server"
	"xivm/internal/xmark"
)

// TestLeaderAndFollowerOverLoopback runs the -listen and -follow modes as
// the command line wires them, on loopback ports: a durable leader that
// checkpoints every 8 records and a follower that tails it. Statements
// written to the leader through internal/client must reach the follower,
// which then serves the view and an XPath probe byte for byte as the
// leader does; both drain cleanly when their context ends, and the tenant
// root the leader wrote passes -verify-recovery.
func TestLeaderAndFollowerOverLoopback(t *testing.T) {
	const deadline = 30 * time.Second
	root := t.TempDir()
	doc := filepath.Join(t.TempDir(), "auction.xml")
	if err := os.WriteFile(doc, []byte(xmark.GenerateSmall(1, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	leaderAddr, followerAddr := freeLoopbackAddr(t), freeLoopbackAddr(t)
	leaderURL, followerURL := "http://"+leaderAddr, "http://"+followerAddr

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderDone := start(ctx, "-listen", leaderAddr, "-data-dir", root, "-doc", doc, "-checkpoint-every", "8",
		"-pattern", "Q1=/site/people/person{ID}/name{ID,val}")
	waitHealthy(t, leaderURL, leaderDone, deadline)
	followerDone := start(ctx, "-follow", leaderURL, "-listen", followerAddr)
	waitHealthy(t, followerURL, followerDone, deadline)

	wctx, wcancel := context.WithTimeout(ctx, deadline)
	defer wcancel()
	lc, fc := client.New(leaderURL), client.New(followerURL)
	stmts := []string{`insert <probe-loopback/> into /site`}
	for i := range 24 {
		stmts = append(stmts, fmt.Sprintf(`insert <person id="loop%d"><name>Loop %d</name><phone>+1</phone></person> into /site/people`, i, i))
		if i%6 == 5 {
			stmts = append(stmts, `delete /site/people/person/phone`)
		}
	}
	for _, stmt := range stmts {
		if _, err := lc.DB("default").Update(wctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	tip := tenantStat(t, wctx, lc, "default").LastLSN
	if tip < uint64(len(stmts)) {
		t.Fatalf("leader tip %d after %d acked statements", tip, len(stmts))
	}
	for {
		if tenantStat(t, wctx, fc, "default").AppliedLSN >= tip {
			break
		}
		select {
		case <-wctx.Done():
			t.Fatalf("follower never reached the leader's tip %d within %v", tip, deadline)
		case <-time.After(5 * time.Millisecond):
		}
	}

	if xr, err := fc.DB("default").XPath(wctx, "/site/probe-loopback"); err != nil || len(xr.Matches) != 1 {
		t.Fatalf("the follower's probe read: %d matches, error %v; want 1", len(xr.Matches), err)
	}
	for _, path := range []string{
		"/v1/db/default/views/Q1",
		"/v1/db/default/xpath?q=" + url.QueryEscape("/site/probe-loopback"),
		"/v1/db/default/xpath?q=" + url.QueryEscape("/site/people/person[starts-with(@id,'loop')]/name"),
	} {
		lb, fb := get(t, leaderURL+path), get(t, followerURL+path)
		if string(lb) != string(fb) {
			t.Errorf("%s differs:\n  leader:   %s\n  follower: %s", path, lb, fb)
		}
	}

	cancel()
	for name, done := range map[string]<-chan error{"leader": leaderDone, "follower": followerDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s drained with %v", name, err)
			}
		case <-time.After(deadline):
			t.Fatalf("%s did not drain within %v", name, deadline)
		}
	}

	if err := xivm(context.Background(), "-data-dir", root, "-verify-recovery"); err != nil {
		t.Fatalf("-verify-recovery on the leader's root: %v", err)
	}
}

// start runs xivm with args until ctx ends; the channel carries its
// result.
func start(ctx context.Context, args ...string) <-chan error {
	done := make(chan error, 1)
	go func() { done <- xivm(ctx, args...) }()
	return done
}

// freeLoopbackAddr returns a loopback address no listener held a moment
// ago.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitHealthy polls base's /healthz until it answers 200, failing the test
// if the run behind it returns first or timeout passes.
func waitHealthy(t *testing.T, base string, done <-chan error, timeout time.Duration) {
	t.Helper()
	for stop := time.Now().Add(timeout); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case err := <-done:
			t.Fatalf("%s stopped before serving: %v", base, err)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(stop) {
			t.Fatalf("%s never answered /healthz within %v", base, timeout)
		}
	}
}

// tenantStat returns tenant name's entry in c's database list, the zero
// entry while the list does not hold it yet.
func tenantStat(t *testing.T, ctx context.Context, c *client.Client, name string) server.TenantStat {
	t.Helper()
	dbs, err := c.ListDBs(ctx)
	if err != nil {
		t.Fatalf("list databases: %v", err)
	}
	for _, st := range dbs {
		if st.Name == name {
			return st
		}
	}
	return server.TenantStat{}
}

func get(t *testing.T, u string) []byte {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", u, resp.StatusCode, body)
	}
	return body
}
