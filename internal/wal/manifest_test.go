package wal

import (
	"strings"
	"testing"
)

// digestOf streams b through a Digest in two writes.
func digestOf(b []byte) *Digest {
	d := NewDigest()
	d.Write(b[:len(b)/2])
	d.Write(b[len(b)/2:])
	return d
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest(42)
	m.SetDoc(digestOf([]byte("<site/>")))
	m.SetOrds(digestOf([]byte{1, 2}))
	m.AddView("Q1", "//a{ID}")
	m.AddView("Q2", "//b{ID,val}")

	back, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.LSN != 42 || back.Format != manifestFormat {
		t.Fatalf("lsn/format %d/%d", back.LSN, back.Format)
	}
	if back.DocHash != HashBytes([]byte("<site/>")) || back.DocBytes != 7 {
		t.Fatalf("doc hash/bytes %q/%d", back.DocHash, back.DocBytes)
	}
	if back.OrdsHash != HashBytes([]byte{1, 2}) || back.OrdsBytes != 2 {
		t.Fatalf("ords hash/bytes %q/%d", back.OrdsHash, back.OrdsBytes)
	}
	if len(back.Views) != 2 || back.Views[1] != (ManifestView{Name: "Q2", Pattern: "//b{ID,val}"}) {
		t.Fatalf("views %+v", back.Views)
	}
}

func TestDecodeManifestRejectsCorruption(t *testing.T) {
	good := func() *Manifest {
		m := NewManifest(7)
		m.SetDoc(digestOf([]byte("<a/>")))
		m.SetOrds(digestOf([]byte{1}))
		m.AddView("V", "//a{ID}")
		return m
	}
	cases := map[string]func() []byte{
		"not json":   func() []byte { return []byte("{nope") },
		"bad format": func() []byte { m := good(); m.Format = 99; return EncodeManifest(m) },
		"bad doc hash": func() []byte {
			m := good()
			m.DocHash = "deadbeef"
			return EncodeManifest(m)
		},
		"negative doc size": func() []byte { m := good(); m.DocBytes = -1; return EncodeManifest(m) },
		"bad ords hash": func() []byte {
			m := good()
			m.OrdsHash = "feedface"
			return EncodeManifest(m)
		},
		"negative ords size": func() []byte { m := good(); m.OrdsBytes = -1; return EncodeManifest(m) },
		"unnamed view": func() []byte {
			m := good()
			m.Views[0].Name = ""
			return EncodeManifest(m)
		},
		"duplicate view": func() []byte {
			m := good()
			m.AddView("V", "//b{ID}")
			return EncodeManifest(m)
		},
	}
	for name, build := range cases {
		if _, err := DecodeManifest(build()); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		} else if !strings.HasPrefix(err.Error(), "wal:") {
			t.Errorf("%s: error %q lacks wal: prefix", name, err)
		}
	}
}
