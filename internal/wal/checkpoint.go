package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"xivm/internal/core"
)

// Checkpoint directories live next to the wal directory as
// checkpoint-<lsn>; a trailing ".tmp" marks one still being written. The
// rename from tmp to final name is the commit point: a crash before it
// leaves only a tmp directory, which recovery ignores and Open sweeps away.
const (
	ckptPrefix = "checkpoint-"
	ckptTmpExt = ".tmp"
)

func ckptName(lsn uint64) string { return fmt.Sprintf("%s%016x", ckptPrefix, lsn) }

func parseCkptName(name string) (uint64, bool) {
	base, ok := strings.CutPrefix(name, ckptPrefix)
	if !ok || len(base) != 16 {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(base, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// ckptBufBytes is all of a checkpoint file that is in memory at once: the
// document and its ordinal stream are serialized through a buffer this
// size, each flush going to the file and into the file's running hash.
const ckptBufBytes = 32 << 10

// ckptBufs lends checkpoints their buffer. A checkpoint holds one only while
// it writes, so a tenant between checkpoints holds none, and a warm process
// allocates none.
var ckptBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, ckptBufBytes) }}

// writeCheckpoint writes a complete checkpoint of an engine epoch — the
// document as canonical XML and its ordinal stream, bound together by a
// hashed manifest that names every view's pattern — into
// dir/checkpoint-<lsn>, atomically: stageCheckpoint writes and fsyncs
// everything in a tmp directory, and publishCheckpoint's single rename
// publishes it. The epoch is immutable, so the engine's writer may go on
// while this runs.
func writeCheckpoint(fsys FS, m *walMetrics, dir string, snap *core.Snapshot, sources map[string]string, lsn uint64) error {
	tmp, total, err := stageCheckpoint(fsys, m, dir, snap, sources, lsn)
	if err != nil {
		return err
	}
	return publishCheckpoint(fsys, m, dir, tmp, lsn, total)
}

// stageCheckpoint writes the checkpoint of snap at lsn into its tmp
// directory, every file and the directory fsynced, and returns the
// directory and the bytes written. A crash between two flushes of one file
// leaves what a crash between two files does: a tmp directory, which
// recovery ignores. On error it removes what it wrote.
func stageCheckpoint(fsys FS, m *walMetrics, dir string, snap *core.Snapshot, sources map[string]string, lsn uint64) (tmp string, total int64, err error) {
	final := filepath.Join(dir, ckptName(lsn))
	tmp = final + ckptTmpExt
	defer func() {
		if err != nil {
			fsys.RemoveAll(tmp) // what this leaves, Open sweeps
		}
	}()
	// A same-named published directory can only be an invalid leftover: a
	// valid one would have been recovered from, and nothing would have been
	// journaled since.
	if err := fsys.RemoveAll(final); err != nil {
		return "", 0, err
	}
	if err := fsys.RemoveAll(tmp); err != nil {
		return "", 0, err
	}
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return "", 0, err
	}
	buf := ckptBufs.Get().(*bufio.Writer)
	defer func() {
		buf.Reset(nil)
		ckptBufs.Put(buf)
	}()
	// writeFile streams what fill writes into the named file and returns
	// the digest of exactly the bytes the file was given.
	writeFile := func(name string, fill func(io.Writer) error) (*Digest, error) {
		f, err := fsys.OpenFile(filepath.Join(tmp, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		d := NewDigest()
		buf.Reset(io.MultiWriter(f, d))
		if err := fill(buf); err != nil {
			f.Close()
			return nil, err
		}
		if err := buf.Flush(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		m.fsyncCount.Inc()
		total += d.Bytes()
		return d, f.Close()
	}
	man := NewManifest(lsn)
	man.EngineVersion = snap.Version
	doc := snap.Doc()
	d, err := writeFile("doc.xml", doc.Serialize)
	if err != nil {
		return "", 0, err
	}
	man.SetDoc(d)
	// The ordinal stream makes restore ID-exact: a reparse of doc.xml plus
	// ApplyOrds reproduces the live engine's Dewey IDs byte for byte, so the
	// views evaluated over it hold the live rows — and a restored process
	// (recovery or a replication follower) serves the same IDs the live one
	// does.
	if d, err = writeFile("doc.ords", doc.WriteOrds); err != nil {
		return "", 0, err
	}
	man.SetOrds(d)
	for i := range snap.Views {
		man.AddView(snap.Views[i].Name, sources[snap.Views[i].Name])
	}
	// The manifest goes last: its presence implies every file it names was
	// already written and fsynced.
	if _, err := writeFile("MANIFEST", func(w io.Writer) error {
		_, err := w.Write(EncodeManifest(man))
		return err
	}); err != nil {
		return "", 0, err
	}
	if err := fsys.SyncDir(tmp); err != nil {
		return "", 0, err
	}
	return tmp, total, nil
}

// publishCheckpoint renames a staged checkpoint to its final name and
// fsyncs dir: the commit point. A failed rename removes the tmp directory.
func publishCheckpoint(fsys FS, m *walMetrics, dir, tmp string, lsn uint64, total int64) error {
	if err := fsys.Rename(tmp, filepath.Join(dir, ckptName(lsn))); err != nil {
		fsys.RemoveAll(tmp) // what this leaves, Open sweeps
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	m.ckptCount.Inc()
	m.ckptBytes.Add(total)
	return nil
}

// listCheckpoints returns the LSNs of the published checkpoints in dir,
// ascending. Tmp directories and foreign entries are ignored; a missing dir
// holds none.
func listCheckpoints(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if lsn, ok := parseCkptName(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// sweepCheckpointTmp removes every tmp directory in dir: the debris of
// checkpoints a crash cut short. Only Open calls it — a tmp directory may
// be a checkpoint in flight once the DB runs.
func sweepCheckpointTmp(fsys FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), ckptPrefix) && strings.HasSuffix(e.Name(), ckptTmpExt) {
			if err := fsys.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// pruneCheckpoints removes the oldest of lsns — published checkpoints in
// dir, ascending — until keep remain, and returns those, in lsns's array.
func pruneCheckpoints(fsys FS, dir string, lsns []uint64, keep int) ([]uint64, error) {
	drop := len(lsns) - keep
	if drop <= 0 {
		return lsns, nil
	}
	for i, lsn := range lsns[:drop] {
		if err := fsys.RemoveAll(filepath.Join(dir, ckptName(lsn))); err != nil {
			return append(lsns[:0], lsns[i:]...), err
		}
	}
	return append(lsns[:0], lsns[drop:]...), fsys.SyncDir(dir)
}
