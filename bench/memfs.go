package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// memFS is the store.FS of every end-to-end store and host: snapshots and
// WAL segments live in this process's memory. The issue asked for store
// roots on tmpfs so that no timing measures a disk; the driver allows no
// write outside the checkout, and on the checkout's journaling filesystem
// file creations and renames made set-up time move 20–40 % between runs. An
// in-memory FS is tmpfs without the system call. What it leaves out is
// counted elsewhere: the per-layer store.* units run on the real filesystem
// through countFS.
//
// Directories are also made on the real filesystem: the store takes its
// per-document LOCK file there and fsyncs the directory, both outside the
// FS interface. RemoveAll leaves them (run removes the whole work root at
// the end): a directory that is re-used round after round is clean, and
// fsync of a clean directory costs microseconds where a new one costs a
// journal commit.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData // by cleaned path
}

// memData is one file's bytes, shared by its open handles; memFS.mu guards it.
type memData struct{ b []byte }

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (StoreFile, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	switch {
	case d == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case d != nil && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case d == nil:
		d = &memData{}
		m.files[name] = d
	}
	if flag&os.O_TRUNC != 0 {
		d.b = d.b[:0]
	}
	return &memFile{fs: m, d: d}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[filepath.Clean(name)]
	if d == nil {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), d.b...), nil
}

// ReadDir lists the files directly under name, sorted; the benchmark's
// store directories hold no subdirectories.
func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	prefix := filepath.Clean(name) + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []os.DirEntry
	for path, d := range m.files {
		if rest, ok := strings.CutPrefix(path, prefix); ok && !strings.ContainsRune(rest, filepath.Separator) {
			out = append(out, memInfo{rest, int64(len(d.b))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Stat(name string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[filepath.Clean(name)]
	if d == nil {
		return nil, notExist("stat", name)
	}
	return memInfo{filepath.Base(name), int64(len(d.b))}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[filepath.Clean(oldpath)]
	if d == nil {
		return notExist("rename", oldpath)
	}
	delete(m.files, filepath.Clean(oldpath))
	m.files[filepath.Clean(newpath)] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[filepath.Clean(name)] == nil {
		return notExist("remove", name)
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.files {
		if p == path || strings.HasPrefix(p, path+string(filepath.Separator)) {
			delete(m.files, p)
		}
	}
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[filepath.Clean(name)]
	if d == nil {
		return notExist("truncate", name)
	}
	if grow := size - int64(len(d.b)); grow > 0 {
		d.b = append(d.b, make([]byte, grow)...)
	}
	d.b = d.b[:size]
	return nil
}

func (m *memFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// copyDir copies the files of directory src to directory dst (made on the
// real filesystem too).
func (m *memFS) copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return err
	}
	prefix := filepath.Clean(src) + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for path, d := range m.files {
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			m.files[filepath.Join(dst, rest)] = &memData{b: append([]byte(nil), d.b...)}
			n++
		}
	}
	if n == 0 {
		return notExist("copy", src)
	}
	return nil
}

// exportDir writes the files of directory src to directory dst on the real
// filesystem: the per-layer store units open their documents there.
func (m *memFS) exportDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return err
	}
	prefix := filepath.Clean(src) + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for path, d := range m.files {
		if rest, ok := strings.CutPrefix(path, prefix); ok {
			if err := os.WriteFile(filepath.Join(dst, rest), d.b, 0o666); err != nil {
				return err
			}
		}
	}
	return nil
}

// memFile is one open handle.
type memFile struct {
	fs  *memFS
	d   *memData
	off int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= int64(len(f.d.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if grow := f.off + int64(len(p)) - int64(len(f.d.b)); grow > 0 {
		f.d.b = append(f.d.b, make([]byte, grow)...)
	}
	copy(f.d.b[f.off:], p)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.d.b))
	}
	if offset < 0 {
		return 0, &fs.PathError{Op: "seek", Err: fs.ErrInvalid}
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

// memInfo is a file's directory entry and its FileInfo.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string               { return i.name }
func (i memInfo) IsDir() bool                { return false }
func (i memInfo) Type() fs.FileMode          { return 0 }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }
func (i memInfo) Size() int64                { return i.size }
func (i memInfo) Mode() fs.FileMode          { return 0o666 }
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) Sys() any                   { return nil }
