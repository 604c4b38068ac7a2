package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
)

// Manifest describes one checkpoint: a consistent on-disk image of the
// document plus every managed view, stamped with the log sequence number it
// reflects. The document and each view snapshot live in sibling files; the
// manifest binds them together with content hashes so recovery can tell a
// complete checkpoint from a torn or bit-rotted one before trusting it.
type Manifest struct {
	// Format is the manifest schema version; decoding rejects versions it
	// does not know.
	Format int `json:"format"`
	// LSN is the last log sequence number whose effects the checkpoint
	// contains; recovery replays strictly newer records on top of it.
	LSN uint64 `json:"lsn"`
	// EngineVersion is the engine's mutation-batch counter at checkpoint
	// time. Recovery (and replication catch-up) restores it so the version
	// an epoch reports is a property of the statement history, not of the
	// process lifetime: two engines at the same LSN report the same
	// version, whichever process — leader, restarted leader, or follower —
	// computed the state. Absent (0) in manifests written before the field
	// existed, which restores the old start-from-zero behavior.
	EngineVersion uint64 `json:"engine_version,omitempty"`
	// DocHash/DocBytes cover the canonical XML serialization of the
	// document file.
	DocHash  string `json:"doc_hash"`
	DocBytes int64  `json:"doc_bytes"`
	// OrdsHash/OrdsBytes cover the document's ordinal stream
	// (xmltree.EncodeOrds), which restores the exact live Dewey-ID space on
	// top of the reparsed document — required for a restored engine (crash
	// recovery or a replication follower) to serve byte-identical responses
	// to the process that wrote the checkpoint.
	OrdsHash  string `json:"ords_hash"`
	OrdsBytes int64  `json:"ords_bytes"`
	// Views lists every materialized view in the checkpoint, in the order
	// they were registered with the engine.
	Views []ManifestView `json:"views"`
}

// ManifestView is one view's entry in a checkpoint manifest.
type ManifestView struct {
	Name string `json:"name"`
	// Pattern is the view's tree pattern in pattern.Parse syntax; recovery
	// re-compiles it to rebuild maintenance structures.
	Pattern string `json:"pattern"`
	// Hash/Bytes cover the view's EncodeSnapshot image.
	Hash  string `json:"hash"`
	Bytes int64  `json:"bytes"`
}

// manifestFormat is the current schema version.
const manifestFormat = 1

// NewManifest returns an empty manifest at the current format version.
func NewManifest(lsn uint64) *Manifest {
	return &Manifest{Format: manifestFormat, LSN: lsn}
}

// AddView appends a view entry for the snapshot image that went through d.
func (m *Manifest) AddView(name, pattern string, d *Digest) {
	m.Views = append(m.Views, ManifestView{Name: name, Pattern: pattern, Hash: d.Hash(), Bytes: d.Bytes()})
}

// SetDoc records the hash and size of the document image that went
// through d.
func (m *Manifest) SetDoc(d *Digest) { m.DocHash, m.DocBytes = d.Hash(), d.Bytes() }

// SetOrds records the hash and size of the ordinal stream that went
// through d.
func (m *Manifest) SetOrds(d *Digest) { m.OrdsHash, m.OrdsBytes = d.Hash(), d.Bytes() }

// View returns the entry with the given name, or nil.
func (m *Manifest) View(name string) *ManifestView {
	for i := range m.Views {
		if m.Views[i].Name == name {
			return &m.Views[i]
		}
	}
	return nil
}

// EncodeManifest serializes the manifest as indented JSON (deterministic:
// field order is fixed, views keep registration order).
func EncodeManifest(m *Manifest) []byte {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		// Manifest contains only plain data types; marshaling cannot fail.
		panic("store: manifest marshal: " + err.Error())
	}
	return append(data, '\n')
}

// DecodeManifest parses and validates a manifest: known format version,
// well-formed hashes, and no duplicate or unnamed views.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: bad manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("store: unsupported manifest format %d", m.Format)
	}
	if !validHash(m.DocHash) {
		return nil, errors.New("store: manifest has malformed document hash")
	}
	if m.DocBytes < 0 {
		return nil, errors.New("store: manifest has negative document size")
	}
	if !validHash(m.OrdsHash) {
		return nil, errors.New("store: manifest has malformed ordinal-stream hash")
	}
	if m.OrdsBytes < 0 {
		return nil, errors.New("store: manifest has negative ordinal-stream size")
	}
	seen := make(map[string]bool, len(m.Views))
	for _, v := range m.Views {
		if v.Name == "" {
			return nil, errors.New("store: manifest view without a name")
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("store: duplicate manifest view %q", v.Name)
		}
		seen[v.Name] = true
		if !validHash(v.Hash) {
			return nil, fmt.Errorf("store: manifest view %q has malformed hash", v.Name)
		}
		if v.Bytes < 0 {
			return nil, fmt.Errorf("store: manifest view %q has negative size", v.Name)
		}
	}
	return &m, nil
}

// HashBytes returns the hex SHA-256 of b — the content hash manifests use.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Digest is HashBytes for content that is streamed rather than held: a
// writer that hashes and counts what passes through it, so a checkpoint
// file's manifest entry is ready when its last byte is written.
type Digest struct {
	sum hash.Hash
	n   int64
}

// NewDigest returns a digest of nothing yet.
func NewDigest() *Digest { return &Digest{sum: sha256.New()} }

// Write never fails.
func (d *Digest) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.sum.Write(p)
}

// Hash returns HashBytes of everything written so far.
func (d *Digest) Hash() string { return hex.EncodeToString(d.sum.Sum(nil)) }

// Bytes returns how many bytes have been written so far.
func (d *Digest) Bytes() int64 { return d.n }

func validHash(h string) bool {
	if len(h) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(h)
	return err == nil
}
