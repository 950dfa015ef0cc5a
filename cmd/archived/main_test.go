package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/adaptive"
)

// TestGenServeSplice runs the full CLI surface in-process: generate a
// stream, fetch a stored field over HTTP, and verify runSplice against
// the facade's reference splice.
func TestGenServeSplice(t *testing.T) {
	dir := t.TempDir()
	if err := runGen(dir, "demo", 2, 16, 8, 2, 1); err != nil {
		t.Fatal(err)
	}

	srv, err := adaptive.NewArchiveServer(adaptive.ArchiveServerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/archive/demo/0/baryon_density")
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stored fetch: %d %s", resp.StatusCode, full)
	}
	fullPath := filepath.Join(dir, "full.bin")
	if err := os.WriteFile(fullPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "r2.bin")
	if err := runSplice(fullPath, 2, outPath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := adaptive.SpliceArchiveField(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("runSplice output (%d bytes) differs from reference splice (%d bytes)", len(got), len(want))
	}

	if err := runSplice(filepath.Join(dir, "missing.bin"), 2, ""); err == nil {
		t.Fatal("runSplice on a missing file should fail")
	}
	if err := runGen("", "x", 1, 16, 8, 1, 1); err == nil {
		t.Fatal("runGen without a dir should fail")
	}
	if err := runGen(dir, "x", 1, 16, 8, 0, 1); err == nil {
		t.Fatal("runGen with zero fields should fail")
	}
}

// TestRunServeGracefulShutdown starts the real serve loop on a free
// port and stops it the way production does: SIGTERM.
func TestRunServeGracefulShutdown(t *testing.T) {
	if err := runServe("", ":0", 0); err == nil {
		t.Fatal("runServe without a dir should fail")
	}

	dir := t.TempDir()
	if err := runGen(dir, "demo", 1, 16, 8, 1, 1); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() { done <- runServe(dir, addr, 8<<20) }()
	up := false
	for i := 0; i < 100 && !up; i++ {
		resp, err := http.Get("http://" + addr + "/v1/archive")
		if err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !up {
		t.Fatal("archived never came up")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("runServe did not exit on SIGTERM")
	}
}
