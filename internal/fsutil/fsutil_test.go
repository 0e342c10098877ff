package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new contents"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "new contents" {
		t.Fatalf("read back %q, err %v", b, err)
	}
	left, _ := filepath.Glob(path + ".tmp*")
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("producer failed")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half a new file"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("expected the producer error back, got %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "old" {
		t.Fatalf("old contents not preserved: %q, err %v", b, err)
	}
	left, _ := filepath.Glob(path + ".tmp*")
	if len(left) != 0 {
		t.Fatalf("failed write left temp files: %v", left)
	}
}

func TestCleanTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	stale := path + ".tmp123"
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other")
	if err := os.WriteFile(other, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	CleanTemps(path)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
}

func TestOSFSSurface(t *testing.T) {
	dir := t.TempDir()
	f, err := Disk.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil || st.Size() != 1 {
		t.Fatalf("Stat: %v %v", st, err)
	}
	if !strings.HasSuffix(f.Name(), "a") {
		t.Fatalf("Name: %q", f.Name())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Disk.OpenFile(filepath.Join(dir, "b"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(dir, "does-not-exist")); !os.IsNotExist(err) {
		t.Fatalf("SyncDir of a missing directory: %v, want the error", err)
	}
}
