package store

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
	m.AddView("Q1", "//a{ID}", digestOf([]byte("snapshot-1")))
	m.AddView("Q2", "//b{ID,val}", digestOf([]byte("snapshot-2")))

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
	if len(back.Views) != 2 {
		t.Fatalf("views %d", len(back.Views))
	}
	v := back.View("Q2")
	if v == nil || v.Pattern != "//b{ID,val}" || v.Hash != HashBytes([]byte("snapshot-2")) || v.Bytes != 10 {
		t.Fatalf("view Q2 %+v", v)
	}
	if back.View("missing") != nil {
		t.Fatal("lookup of absent view succeeded")
	}
}

func TestDecodeManifestRejectsCorruption(t *testing.T) {
	good := func() *Manifest {
		m := NewManifest(7)
		m.SetDoc(digestOf([]byte("<a/>")))
		m.SetOrds(digestOf([]byte{1}))
		m.AddView("V", "//a{ID}", digestOf([]byte("x")))
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
			m.AddView("V", "//b{ID}", digestOf([]byte("y")))
			return EncodeManifest(m)
		},
		"bad view hash": func() []byte {
			m := good()
			m.Views[0].Hash = "zz"
			return EncodeManifest(m)
		},
		"negative view size": func() []byte {
			m := good()
			m.Views[0].Bytes = -5
			return EncodeManifest(m)
		},
	}
	for name, build := range cases {
		if _, err := DecodeManifest(build()); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		} else if !strings.HasPrefix(err.Error(), "store:") {
			t.Errorf("%s: error %q lacks store: prefix", name, err)
		}
	}
}
