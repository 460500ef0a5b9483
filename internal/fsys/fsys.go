// Package fsys holds the filesystem under a store's data files (FS,
// File, the real OSFS) and FaultFS, the fault injector that tests and
// the simulator put in its place. store re-exports FS, File and OSFS.
package fsys

import (
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FS is the filesystem a store's data files go through: segments,
// snapshots, and directory listings.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
}

// File is the open-file surface a store needs.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OSFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OSFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (OSFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                     { return os.Remove(name) }
func (OSFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OSFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// FaultFS wraps an FS and injects failures on demand. All methods are
// safe for concurrent use; injected faults apply until cleared.
//
// Read-side faults (FlipBit, ShortRead, FailRead) key on the file's
// cleaned path and corrupt or fail what ReadFile returns without ever
// touching the bytes on disk — deterministic damage that survives
// retries and can be lifted again. Write-side faults (FailWrites,
// FailSync) apply to every write or sync issued through the injector
// from the moment they are armed, whenever the file was opened: writes
// consume the remaining byte budget and then fail the way a full disk
// does (a partial write followed by the error), and Sync returns the
// armed error.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	flips     map[string][]bitFlip
	shortRead map[string]int
	readErr   map[string]error
	writeErr  error
	writeLeft int64 // bytes FailWrites still lets through; valid when writeErr != nil
	syncErr   error
}

type bitFlip struct {
	off  int64
	mask byte
}

// NewFaultFS wraps inner (nil: the real filesystem) with a fault
// injector that starts transparent.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{inner: inner}
}

// FlipBit arms a read-side corruption: every ReadFile of path sees the
// byte at off XOR-ed with mask. Offsets beyond the file are ignored.
func (f *FaultFS) FlipBit(path string, off int64, mask byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flips == nil {
		f.flips = make(map[string][]bitFlip)
	}
	p := filepath.Clean(path)
	f.flips[p] = append(f.flips[p], bitFlip{off: off, mask: mask})
}

// ShortRead arms a read-side truncation: every ReadFile of path
// returns at most n bytes.
func (f *FaultFS) ShortRead(path string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shortRead == nil {
		f.shortRead = make(map[string]int)
	}
	f.shortRead[filepath.Clean(path)] = n
}

// FailRead arms a read-side failure: every ReadFile of path returns
// err.
func (f *FaultFS) FailRead(path string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.readErr == nil {
		f.readErr = make(map[string]error)
	}
	f.readErr[filepath.Clean(path)] = err
}

// FailWrites arms a write-side failure on files opened from now on:
// the next `budget` bytes written go through, then every write fails
// with err after a partial write — the shape ENOSPC takes.
func (f *FaultFS) FailWrites(budget int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = err
	f.writeLeft = budget
}

// FailSync arms Sync failures on files opened from now on.
func (f *FaultFS) FailSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr = err
}

// Clear lifts every armed fault.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flips = nil
	f.shortRead = nil
	f.readErr = nil
	f.writeErr = nil
	f.writeLeft = 0
	f.syncErr = nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	p := filepath.Clean(name)
	f.mu.Lock()
	rerr := f.readErr[p]
	short, hasShort := f.shortRead[p]
	flips := f.flips[p]
	f.mu.Unlock()
	if rerr != nil {
		return nil, rerr
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if hasShort && len(data) > short {
		data = data[:short]
	}
	for _, fl := range flips {
		if fl.off >= 0 && fl.off < int64(len(data)) {
			data[fl.off] ^= fl.mask
		}
	}
	return data, nil
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error)   { return f.inner.ReadDir(name) }
func (f *FaultFS) Stat(name string) (os.FileInfo, error)        { return f.inner.Stat(name) }
func (f *FaultFS) Rename(oldpath, newpath string) error         { return f.inner.Rename(oldpath, newpath) }
func (f *FaultFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *FaultFS) RemoveAll(path string) error                  { return f.inner.RemoveAll(path) }
func (f *FaultFS) Truncate(name string, size int64) error       { return f.inner.Truncate(name, size) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

// faultFile applies the injector's write/sync faults to one open file.
type faultFile struct {
	File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	werr := w.fs.writeErr
	left := w.fs.writeLeft
	if werr != nil {
		if left > int64(len(p)) {
			w.fs.writeLeft -= int64(len(p))
		} else {
			w.fs.writeLeft = 0
		}
	}
	w.fs.mu.Unlock()
	if werr == nil {
		return w.File.Write(p)
	}
	if left >= int64(len(p)) {
		return w.File.Write(p)
	}
	// Partial write, then the armed error — what a full disk does.
	n := 0
	if left > 0 {
		n, _ = w.File.Write(p[:left])
	}
	return n, werr
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	serr := w.fs.syncErr
	w.fs.mu.Unlock()
	if serr != nil {
		return serr
	}
	return w.File.Sync()
}
