package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xivm/internal/core"
	"xivm/internal/store"
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
// document, its ordinal stream and each view are serialized through a
// buffer this size, each flush going to the file and into the file's
// running hash.
const ckptBufBytes = 32 << 10

// writeCheckpoint writes a complete checkpoint of the engine — the document
// as canonical XML plus every managed view via store.WriteSnapshot, bound
// together by a hashed manifest — into dir/checkpoint-<lsn>, atomically:
// everything lands in a tmp directory, every file is fsynced, and a single
// rename publishes it. A crash between two flushes of one file leaves what
// a crash between two files does: a tmp directory.
func writeCheckpoint(fsys FS, m *walMetrics, dir string, eng *core.Engine, sources map[string]string, lsn uint64) error {
	final := filepath.Join(dir, ckptName(lsn))
	tmp := final + ckptTmpExt
	if err := fsys.RemoveAll(tmp); err != nil {
		return err
	}
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	var total int64
	buf := bufio.NewWriterSize(nil, ckptBufBytes)
	// writeFile streams what fill writes into the named file and returns
	// the digest of exactly the bytes the file was given.
	writeFile := func(name string, fill func(io.Writer) error) (*store.Digest, error) {
		f, err := fsys.OpenFile(filepath.Join(tmp, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		d := store.NewDigest()
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
	man := store.NewManifest(lsn)
	man.EngineVersion = eng.Version()
	d, err := writeFile("doc.xml", eng.Doc.Serialize)
	if err != nil {
		return err
	}
	man.SetDoc(d)
	// The ordinal stream makes restore ID-exact: a reparse of doc.xml plus
	// ApplyOrds reproduces the live engine's Dewey IDs byte for byte, so the
	// view snapshots below can carry the live rows as-is — and a restored
	// process (recovery or a replication follower) serves the same IDs the
	// live one does.
	if d, err = writeFile("doc.ords", eng.Doc.WriteOrds); err != nil {
		return err
	}
	man.SetOrds(d)
	for _, mv := range eng.Views {
		if d, err = writeFile(mv.Name+".xivm", func(w io.Writer) error { return store.WriteSnapshot(w, mv.View) }); err != nil {
			return err
		}
		man.AddView(mv.Name, sources[mv.Name], d)
	}
	// The manifest goes last: its presence implies every file it names was
	// already written and fsynced.
	if _, err := writeFile("MANIFEST", func(w io.Writer) error {
		_, err := w.Write(store.EncodeManifest(man))
		return err
	}); err != nil {
		return err
	}
	if err := fsys.SyncDir(tmp); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, final); err != nil {
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
// ascending. Tmp directories and foreign entries are ignored.
func listCheckpoints(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
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

// pruneCheckpoints removes published checkpoints beyond the newest keep,
// and every leftover tmp directory.
func pruneCheckpoints(fsys FS, dir string, keep int) error {
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
	lsns, err := listCheckpoints(fsys, dir)
	if err != nil {
		return err
	}
	for len(lsns) > keep {
		if err := fsys.RemoveAll(filepath.Join(dir, ckptName(lsns[0]))); err != nil {
			return err
		}
		lsns = lsns[1:]
	}
	return fsys.SyncDir(dir)
}
