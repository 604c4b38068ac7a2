package wal

import (
	"fmt"
	"path/filepath"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/xmltree"
)

// Image is a verified checkpoint image, in the form it sits on disk and
// travels to a follower: the raw manifest bytes exactly as written (the
// hashes inside bind the rest), the document XML, its ordinal stream (the
// live Dewey-ID space, see xmltree.EncodeOrds), and each view's encoded
// snapshot. Crash recovery loads one from a checkpoint directory; a
// follower builds one from a /repl/snapshot body.
type Image struct {
	RawManifest []byte
	Manifest    *store.Manifest
	DocXML      []byte
	Ords        []byte
	Views       map[string][]byte
}

// NewImage is the one verifier every image goes through, whether its bytes
// came from a disk or a socket: manifest decode, document and
// ordinal-stream size and hash, and every view's size and hash, with no
// view missing.
func NewImage(rawManifest, docXML, ords []byte, views map[string][]byte) (*Image, error) {
	man, err := store.DecodeManifest(rawManifest)
	if err != nil {
		return nil, err
	}
	if int64(len(docXML)) != man.DocBytes || store.HashBytes(docXML) != man.DocHash {
		return nil, fmt.Errorf("wal: image at lsn %d: document fails its hash", man.LSN)
	}
	if int64(len(ords)) != man.OrdsBytes || store.HashBytes(ords) != man.OrdsHash {
		return nil, fmt.Errorf("wal: image at lsn %d: ordinal stream fails its hash", man.LSN)
	}
	img := &Image{RawManifest: rawManifest, Manifest: man, DocXML: docXML, Ords: ords, Views: make(map[string][]byte, len(man.Views))}
	for _, v := range man.Views {
		snap, ok := views[v.Name]
		if !ok {
			return nil, fmt.Errorf("wal: image at lsn %d: view %s missing", man.LSN, v.Name)
		}
		if int64(len(snap)) != v.Bytes || store.HashBytes(snap) != v.Hash {
			return nil, fmt.Errorf("wal: image at lsn %d: view %s fails its hash", man.LSN, v.Name)
		}
		img.Views[v.Name] = snap
	}
	return img, nil
}

// loadImage reads the checkpoint directory for lsn and verifies it. Any
// mismatch — torn manifest, bit-rotted file, missing view, a directory
// whose name disagrees with its manifest — is an error; the caller falls
// back to an older checkpoint.
func loadImage(fsys FS, dir string, lsn uint64) (*Image, error) {
	base := filepath.Join(dir, ckptName(lsn))
	raw, err := fsys.ReadFile(filepath.Join(base, "MANIFEST"))
	if err != nil {
		return nil, err
	}
	// Decoded here only to learn which view files to read; NewImage
	// decodes and checks it again with everything else.
	man, err := store.DecodeManifest(raw)
	if err != nil {
		return nil, err
	}
	if man.LSN != lsn {
		return nil, fmt.Errorf("wal: checkpoint %s declares lsn %d", ckptName(lsn), man.LSN)
	}
	doc, err := fsys.ReadFile(filepath.Join(base, "doc.xml"))
	if err != nil {
		return nil, err
	}
	ords, err := fsys.ReadFile(filepath.Join(base, "doc.ords"))
	if err != nil {
		return nil, err
	}
	views := make(map[string][]byte, len(man.Views))
	for _, v := range man.Views {
		if views[v.Name], err = fsys.ReadFile(filepath.Join(base, v.Name+".xivm")); err != nil {
			return nil, err
		}
	}
	return NewImage(raw, doc, ords, views)
}

// Restore builds a fresh engine from the image: parse the document,
// re-impose the recorded ordinal stream so every node carries the exact
// Dewey ID it had in the live engine (the snapshot rows' IDs resolve, and
// the restored process answers queries with byte-identical IDs), install
// every view from its snapshot rows without re-evaluating patterns, and
// seed the version counter from the manifest so replaying the log suffix
// reproduces the version numbers the original engine reported. Old
// manifests carry version 0, preserving their historical behavior.
func (img *Image) Restore(opts ...core.Option) (*core.Engine, error) {
	doc, err := xmltree.ParseString(string(img.DocXML))
	if err != nil {
		return nil, fmt.Errorf("wal: image document: %w", err)
	}
	if err := doc.ApplyOrds(img.Ords); err != nil {
		return nil, fmt.Errorf("wal: image ordinal stream: %w", err)
	}
	eng := core.New(doc, opts...)
	for _, v := range img.Manifest.Views {
		p, err := pattern.Parse(v.Pattern)
		if err != nil {
			return nil, fmt.Errorf("wal: image view %s pattern: %w", v.Name, err)
		}
		rows, err := store.DecodeSnapshot(img.Views[v.Name])
		if err != nil {
			return nil, fmt.Errorf("wal: image view %s snapshot: %w", v.Name, err)
		}
		if _, err := eng.AddViewRows(v.Name, p, rows); err != nil {
			return nil, fmt.Errorf("wal: image view %s: %w", v.Name, err)
		}
	}
	eng.SetVersion(img.Manifest.EngineVersion)
	return eng, nil
}
