package wal

import (
	"fmt"
	"path/filepath"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Image is a verified checkpoint image, in the form it sits on disk and
// travels to a follower: the raw manifest bytes exactly as written (the
// hashes inside bind the rest), the document XML and its ordinal stream
// (the live Dewey-ID space, see xmltree.EncodeOrds). The manifest names
// every view by its pattern; the document is all the state a view needs.
// Crash recovery loads one from a checkpoint directory; a follower builds
// one from a /repl/snapshot body.
type Image struct {
	RawManifest []byte
	Manifest    *Manifest
	DocXML      []byte
	Ords        []byte
}

// NewImage is the one verifier every image goes through, whether its bytes
// came from a disk or a socket: manifest decode, then document and
// ordinal-stream size and hash.
func NewImage(rawManifest, docXML, ords []byte) (*Image, error) {
	man, err := DecodeManifest(rawManifest)
	if err != nil {
		return nil, err
	}
	if int64(len(docXML)) != man.DocBytes || HashBytes(docXML) != man.DocHash {
		return nil, fmt.Errorf("wal: image at lsn %d: document fails its hash", man.LSN)
	}
	if int64(len(ords)) != man.OrdsBytes || HashBytes(ords) != man.OrdsHash {
		return nil, fmt.Errorf("wal: image at lsn %d: ordinal stream fails its hash", man.LSN)
	}
	return &Image{RawManifest: rawManifest, Manifest: man, DocXML: docXML, Ords: ords}, nil
}

// loadImage reads the checkpoint directory for lsn and verifies it. Any
// mismatch — torn manifest, bit-rotted file, a directory whose name
// disagrees with its manifest — is an error; the caller falls back to an
// older checkpoint.
func loadImage(fsys FS, dir string, lsn uint64) (*Image, error) {
	base := filepath.Join(dir, ckptName(lsn))
	raw, err := fsys.ReadFile(filepath.Join(base, "MANIFEST"))
	if err != nil {
		return nil, err
	}
	doc, err := fsys.ReadFile(filepath.Join(base, "doc.xml"))
	if err != nil {
		return nil, err
	}
	ords, err := fsys.ReadFile(filepath.Join(base, "doc.ords"))
	if err != nil {
		return nil, err
	}
	img, err := NewImage(raw, doc, ords)
	if err != nil {
		return nil, err
	}
	if img.Manifest.LSN != lsn {
		return nil, fmt.Errorf("wal: checkpoint %s declares lsn %d", ckptName(lsn), img.Manifest.LSN)
	}
	return img, nil
}

// Restore builds a fresh engine from the image: parse the document,
// re-impose the recorded ordinal stream so every node carries the exact
// Dewey ID it had in the live engine (the restored process answers queries
// with byte-identical IDs), install every view with Engine.AddViews — each
// pattern evaluated over the document, as at create, their labels indexed
// in one walk — and seed the version counter from the manifest so
// replaying the log suffix reproduces the version numbers the original
// engine reported. Old manifests carry version 0, preserving their
// historical behavior. The document is parsed in place: the image's bytes
// must not change while Restore runs.
func (img *Image) Restore(opts ...core.Option) (*core.Engine, error) {
	doc, err := xmltree.ParseString(bytesString(img.DocXML))
	if err != nil {
		return nil, fmt.Errorf("wal: image document: %w", err)
	}
	if err := doc.ApplyOrds(img.Ords); err != nil {
		return nil, fmt.Errorf("wal: image ordinal stream: %w", err)
	}
	named := make([]core.NamedPattern, len(img.Manifest.Views))
	for i, v := range img.Manifest.Views {
		p, err := pattern.Parse(v.Pattern)
		if err != nil {
			return nil, fmt.Errorf("wal: image view %s pattern: %w", v.Name, err)
		}
		named[i] = core.NamedPattern{Name: v.Name, Pattern: p}
	}
	eng := core.New(doc, opts...)
	if err := eng.AddViews(named); err != nil {
		return nil, fmt.Errorf("wal: image views: %w", err)
	}
	eng.SetVersion(img.Manifest.EngineVersion)
	return eng, nil
}
