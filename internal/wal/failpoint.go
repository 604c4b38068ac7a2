package wal

import (
	"errors"
	"io/fs"
	"sync"
)

// ErrCrash is what every FailFS operation returns once the injected crash
// has fired — the filesystem is "dead" for the rest of the process's life,
// like the page cache of a machine that lost power.
var ErrCrash = errors.New("wal: injected crash")

// ErrIO is what the FailFS operation at ErrAt returns: one failed
// operation, a full disk's write say, after which the filesystem goes on.
var ErrIO = errors.New("wal: injected I/O error")

// FailFS wraps an FS, counts its mutating operations, and crashes at a
// chosen one: the crash-matrix tests first probe a run to learn its
// operation count, then re-run it once per index with CrashAt set,
// recovering from the leftover directory each time. A crash firing inside a
// Write optionally lands a torn prefix of the buffer first — the torn-tail
// case the frame checksums exist for.
//
// Only operations that reach the disk mutate the count; reads are free but
// fail after the crash like everything else. A DB's writer and its
// checkpoint write through the same FailFS at once: the count is one
// sequence across both, and once the crash has fired every operation fails,
// from either.
type FailFS struct {
	// CrashAt fires the crash at the CrashAt-th mutating operation
	// (0-based). Negative never crashes (probe mode).
	CrashAt int
	// TornBytes is how many bytes of a Write land when the crash fires
	// inside it. Negative writes half the buffer.
	TornBytes int
	// ErrAt fails the ErrAt-th mutating operation (0-based) with ErrIO:
	// nothing of it lands, and every other operation goes on. Negative
	// fails none.
	ErrAt int

	inner   FS
	mu      sync.Mutex
	ops     int
	crashed bool
}

// NewFailFS wraps inner in probe mode (never crashes).
func NewFailFS(inner FS) *FailFS {
	return &FailFS{CrashAt: -1, TornBytes: -1, ErrAt: -1, inner: inner}
}

// Ops returns how many mutating operations have run.
func (f *FailFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// step accounts one mutating operation and decides whether to crash now.
// fired reports whether the crash fired on this very operation.
func (f *FailFS) step() (fired bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrash
	}
	at := f.ops
	f.ops++
	if f.CrashAt >= 0 && at >= f.CrashAt {
		f.crashed = true
		return true, ErrCrash
	}
	if at == f.ErrAt {
		return false, ErrIO
	}
	return false, nil
}

func (f *FailFS) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrash
	}
	return nil
}

func (f *FailFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if _, err := f.step(); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{fs: f, inner: file}, nil
}

func (f *FailFS) ReadFile(name string) ([]byte, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FailFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FailFS) MkdirAll(name string, perm fs.FileMode) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.MkdirAll(name, perm)
}

func (f *FailFS) Rename(oldpath, newpath string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FailFS) Remove(name string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FailFS) RemoveAll(name string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.RemoveAll(name)
}

func (f *FailFS) Truncate(name string, size int64) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *FailFS) SyncDir(name string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

type failFile struct {
	fs    *FailFS
	inner File
}

// Write is where torn writes come from: if the crash fires on this
// operation, a prefix of p still reaches the file — what a sector-sized
// power cut does to an in-flight append.
func (w *failFile) Write(p []byte) (int, error) {
	if fired, err := w.fs.step(); err != nil {
		if fired && len(p) > 0 {
			// The crash fired on THIS write (not a pre-crashed fs): land the
			// torn prefix.
			torn := w.fs.TornBytes
			if torn < 0 {
				torn = len(p) / 2
			}
			if torn > len(p) {
				torn = len(p)
			}
			if torn > 0 {
				w.inner.Write(p[:torn])
			}
		}
		return 0, err
	}
	return w.inner.Write(p)
}

func (w *failFile) Sync() error {
	if _, err := w.fs.step(); err != nil {
		return err
	}
	return w.inner.Sync()
}

// Close never counts as a mutating step (closing loses nothing), but a
// dead filesystem still refuses it.
func (w *failFile) Close() error {
	if err := w.fs.alive(); err != nil {
		// Close the real handle anyway so tests don't leak descriptors.
		w.inner.Close()
		return err
	}
	return w.inner.Close()
}
