// Package fsutil holds the small filesystem rituals the durable paths
// share, so the write-temp/fsync/rename/fsync-dir dance lives in one
// place instead of diverging across savers — and the single seam
// (Disk) every durable writer opens files through, so fault injection
// can make one node's disk slow, full, or lying without touching the
// code under test.
package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// File is the writable-file surface the durable paths use: WAL
// segments, run files, hint files, the topic map. It is the subset of
// *os.File they actually touch, which is what lets a fault injector
// interpose on writes and fsyncs.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
	Stat() (os.FileInfo, error)
}

// FS opens files for writing and fsyncs directories. The package-level
// Disk instance is the seam: production code always goes through it,
// tests swap it to inject slow writes, ENOSPC, or torn fsyncs on
// matching paths.
type FS interface {
	Create(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	// SyncDir fsyncs a directory, so the names created in it or renamed
	// into it survive a crash.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) { return os.Create(name) }
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// SyncDir fsyncs dir. A filesystem that does not support fsync on a
// directory (EINVAL, ENOTSUP) is not an error; every other failure is.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Disk is the FS every durable writer opens files through. Swap it
// (and restore it) only in tests that own the process — it is global
// state, the same trade the store's WAL sink seam already makes.
var Disk FS = OSFS{}

// WriteFileAtomic replaces path with the bytes produced by write,
// atomically and durably: the content goes to a uniquely named temp
// file in the same directory, is fsynced, renamed over path, and the
// directory is fsynced. A crash at any point leaves either the old
// file or the new one — never a torn or empty file. Unique temp names
// keep concurrent savers of the same path from interleaving; the last
// rename wins. A failed directory fsync is returned too: the new file
// is then in place, but whether it survives a crash is not known.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := Disk.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory through Disk so a just-created or
// just-renamed file survives a crash.
func SyncDir(dir string) error { return Disk.SyncDir(dir) }

// CleanTemps removes temp files a crashed WriteFileAtomic for path
// left behind. Call at startup, before concurrent savers exist — the
// glob would happily delete a temp file another writer is mid-way
// through.
func CleanTemps(path string) {
	stale, _ := filepath.Glob(path + ".tmp*")
	for _, p := range stale {
		os.Remove(p)
	}
}
