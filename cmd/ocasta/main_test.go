package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	defer func() { os.Stdout = orig }()
	fn()
	w.Close()
	return <-done
}

// TestClusterGolden pins the stdout of `ocasta cluster` on a small
// hand-written trace: unsorted lines, a read, a delete, and a second
// application writing in the same seconds as the clustered one (which
// must not join its clusters). Run with -update to rewrite the goldens.
func TestClusterGolden(t *testing.T) {
	trace := filepath.Join("testdata", "small.jsonl")
	cases := []struct {
		golden string
		args   []string
	}{
		{"cluster_default.golden", []string{"-trace", trace, "-app", "editor"}},
		{"cluster_avg_3s.golden", []string{"-trace", trace, "-app", "editor",
			"-window", "3s", "-threshold", "1", "-linkage", "average", "-parallelism", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var code int
			got := captureStdout(t, func() { code = runCluster(tc.args) })
			if code != 0 {
				t.Fatalf("runCluster exit %d", code)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
