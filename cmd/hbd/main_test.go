package main

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hbserve"
)

func TestUnknownMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown mode") {
		t.Errorf("stderr %q", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-qps", "many"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"route", []string{"route"}},
		{"route,paths", []string{"route", "paths"}},
		{"a,,b,", []string{"a", "b"}},
		{"", nil},
	} {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestLoadModeEndToEnd boots the server in-process and points load mode
// at it — the same sequence as the CI smoke, compressed.
func TestLoadModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run in -short")
	}
	srv := hbserve.NewServer(hbserve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 5*time.Second) }()

	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mode", "load",
		"-url", "http://" + ln.Addr().String(),
		"-m", "1", "-n", "3",
		"-qps", "300", "-duration", "300ms", "-workers", "8",
		"-endpoints", "route,paths", "-mixes", "permutation",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Errorf("stdout %q", stdout.String())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestLoadModeBatch runs the batch leg of load mode against an
// in-process server and checks the speedup line and report land.
func TestLoadModeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run in -short")
	}
	srv := hbserve.NewServer(hbserve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 5*time.Second) }()

	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mode", "load",
		"-url", "http://" + ln.Addr().String(),
		"-m", "1", "-n", "3",
		"-qps", "200", "-duration", "300ms", "-workers", "8",
		"-endpoints", "route", "-mixes", "uniform",
		"-batch", "32", "-codec", "bin",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"batch=32", "batch speedup", "wrote " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout is missing %q:\n%s", want, stdout.String())
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRouterModeRejectsEmptyFleet: router mode without -replicas is a
// configuration error, exit 2.
func TestRouterModeRejectsEmptyFleet(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "router", "-addr", "127.0.0.1:0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "replica") {
		t.Errorf("stderr %q", stderr.String())
	}
}

// TestClusterLoadModeEndToEnd boots two replicas and a router
// in-process and points clusterload mode at the fleet — the same
// sequence as the CI cluster-smoke, compressed and chaos-free.
func TestClusterLoadModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run in -short")
	}
	var urls []string
	ctx, cancel := context.WithCancel(context.Background())
	var done []chan error
	for i := 0; i < 2; i++ {
		srv := hbserve.NewServer(hbserve.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, "http://"+ln.Addr().String())
		ch := make(chan error, 1)
		done = append(done, ch)
		go func() { ch <- srv.Serve(ctx, ln, 5*time.Second) }()
	}
	rt, err := hbserve.NewRouter(hbserve.ClusterConfig{
		Replicas:      urls,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rdone := make(chan error, 1)
	go func() { rdone <- rt.Serve(ctx, rln, 5*time.Second) }()

	out := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mode", "clusterload",
		"-router", "http://" + rln.Addr().String(),
		"-replicas", strings.Join(urls, ","),
		"-m", "1", "-n", "3",
		"-qps", "200", "-duration", "300ms", "-workers", "8",
		"-endpoints", "route", "-mixes", "uniform",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"router leg", "aggregate", "wrote " + out} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout is missing %q:\n%s", want, stdout.String())
		}
	}
	cancel()
	if err := <-rdone; err != nil {
		t.Fatalf("router drain: %v", err)
	}
	for _, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("replica drain: %v", err)
		}
	}
}

// TestFirstOr covers the clusterload endpoint/mix fallback.
func TestFirstOr(t *testing.T) {
	if got := firstOr([]string{"paths", "route"}, "route"); got != "paths" {
		t.Errorf("firstOr = %q", got)
	}
	if got := firstOr(nil, "route"); got != "route" {
		t.Errorf("firstOr(nil) = %q", got)
	}
}
