package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Regression for the stickyerr finding that led to writeAndClose: the
// trace output used to be closed via defer, so a close-time flush
// failure vanished and tracegen exited 0 with a truncated file.

func TestWriteAndCloseReportsCloseError(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The writer succeeds; the (already-closed) file makes Close fail,
	// and that failure must surface.
	err = writeAndClose(f, func(io.Writer) error { return nil })
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("writeAndClose on a closed file = %v, want ErrClosed", err)
	}
}

func TestWriteAndClosePropagatesWriteError(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("write failed")
	if err := writeAndClose(f, func(io.Writer) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("writeAndClose = %v, want the write error", err)
	}
	// The file must still have been closed on the error path.
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("file was not closed on the write-error path (second close = %v)", err)
	}
}

func TestWriteAndCloseWritesThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAndClose(f, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("file contents = %q, want %q", data, "payload")
	}
}
