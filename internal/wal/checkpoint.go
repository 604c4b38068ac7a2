package wal

import (
	"fmt"
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

// writeCheckpoint writes a complete checkpoint of the engine — the document
// as canonical XML plus every managed view via store.EncodeSnapshot, bound
// together by a hashed manifest — into dir/checkpoint-<lsn>, atomically:
// everything lands in a tmp directory, every file is fsynced, and a single
// rename publishes it.
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
	writeFile := func(name string, data []byte) error {
		f, err := fsys.OpenFile(filepath.Join(tmp, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		m.fsyncCount.Inc()
		total += int64(len(data))
		return f.Close()
	}

	man := store.NewManifest(lsn)
	man.EngineVersion = eng.Version()
	doc := []byte(eng.Doc.String())
	man.SetDoc(doc)
	if err := writeFile("doc.xml", doc); err != nil {
		return err
	}
	// The ordinal stream makes restore ID-exact: a reparse of doc.xml plus
	// ApplyOrds reproduces the live engine's Dewey IDs byte for byte, so the
	// view snapshots below can carry the live rows as-is — and a restored
	// process (recovery or a replication follower) serves the same IDs the
	// live one does.
	ords := eng.Doc.EncodeOrds()
	man.SetOrds(ords)
	if err := writeFile("doc.ords", ords); err != nil {
		return err
	}
	for _, mv := range eng.Views {
		snap := store.EncodeSnapshot(store.NewMaterializedView(mv.Pattern, mv.View.Rows()))
		man.AddView(mv.Name, sources[mv.Name], snap)
		if err := writeFile(mv.Name+".xivm", snap); err != nil {
			return err
		}
	}
	// The manifest goes last: its presence implies every file it names was
	// already written and fsynced.
	if err := writeFile("MANIFEST", store.EncodeManifest(man)); err != nil {
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
