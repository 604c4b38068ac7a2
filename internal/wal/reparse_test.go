package wal

import (
	"errors"
	"os"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// Each test here is a write the live engine acknowledged and a restart
// lost, while documents, forests and journaled statements were read by
// tokenizers that disagreed: a restart reads the tenant back by one parser,
// and must find what the live engine held.

// reopen closes db and opens its directory again, failing t unless the
// recovered document is the one db held, ordinals included.
func reopen(t *testing.T, db *DB, dir string) *DB {
	t.Helper()
	want, wantOrds := db.Engine().Doc.String(), string(db.Engine().Doc.EncodeOrds())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	if got := re.Engine().Doc.String(); got != want {
		t.Fatalf("recovered document differs:\n got %s\nwant %s", got, want)
	}
	if string(re.Engine().Doc.EncodeOrds()) != wantOrds {
		t.Fatal("recovered ordinals differ")
	}
	return re
}

// TestForestNamespaceDeclRestores: an inserted forest's namespace
// declaration is no attribute, as in a document, so a checkpoint taken
// after the insert restores. It was kept as an @xmlns node, which the
// checkpoint's reparse dropped: "ordinal stream longer than the document".
func TestForestNamespaceDeclRestores(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(1, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, []string{`insert <person xmlns="urn:x" xmlns:p="urn:p" id="p2" p:k="v"><name>Ann</name></person> into /site/people`})
	for _, l := range []string{"@xmlns", "@p"} {
		if n := len(db.Engine().Doc.Labeled(l)); n != 0 {
			t.Fatalf("the inserted forest kept %d %s attributes", n, l)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := reopen(t, db, dir).Stats(); st.CheckpointLSN == 0 {
		t.Fatalf("recovery did not start from the checkpoint: %+v", st)
	}
}

// TestAttributeGtSurvivesReplay: a '>' in an attribute value, which the
// journal writes as it is (legal XML), replays. The statement parser ended
// a tag at the first '>', quoted or not, so replay skipped the statement
// and the acknowledged person was gone.
func TestAttributeGtSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(1, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, []string{`insert <person id="p9" note="1&gt;0"/> into /site/people`})
	re := reopen(t, db, dir)
	if st := re.Stats(); st.Replayed != 1 || st.Skipped != 0 {
		t.Fatalf("replay: %+v, want the insert replayed", st)
	}
	for _, a := range re.Engine().Doc.Labeled("@note") {
		if a.Value() == "1>0" {
			return
		}
	}
	t.Fatal("the acknowledged person is gone")
}

// TestSplitTextRestores: a tenant created from a document whose text a
// comment or a CDATA section splits restores from its own creation
// checkpoint. The split text was two text nodes live and one in the
// checkpoint's reparse.
func TestSplitTextRestores(t *testing.T) {
	for _, doc := range []string{
		`<site><a>x<!--c-->y</a></site>`,
		`<site><a>x<![CDATA[<y>]]></a></site>`,
	} {
		dir := t.TempDir()
		db, err := Create(dir, []byte(doc), Options{Metrics: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		reopen(t, db, dir)
	}
}

// TestCreateRefusesABadDocumentFirst: Create parses before it touches the
// disk, and a document the parser refuses is a *xmltree.SyntaxError behind
// the error, with no directory left.
func TestCreateRefusesABadDocumentFirst(t *testing.T) {
	dir := t.TempDir() + "/tenant"
	_, err := Create(dir, []byte(`<unclosed`), Options{Metrics: obs.New()})
	var syn *xmltree.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("Create: %v, want a SyntaxError", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused document left %s behind (%v)", dir, err)
	}
}
