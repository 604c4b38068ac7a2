package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/wal"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// stressViews and stressQueries are the read mix; stressVocabulary is the
// write mix, cycled to reach the statement target. The vocabulary's inserts
// and deletes roughly balance so the document stays small.
var (
	stressViews   = []string{"Q1", "Q2"}
	stressQueries = []string{
		"/site/people/person/name",
		"/site/open_auctions/open_auction/bidder/increase",
	}
	stressVocabulary = []string{
		`insert <person id="pstress"><name>Stress Person</name><phone>+1 555 0100</phone></person> into /site/people`,
		`for $x in /site/open_auctions/open_auction insert <bidder><date>02/02/2020</date><increase>2.50</increase></bidder>`,
		`delete /site/people/person/phone`,
		`insert <open_auction id="ostress"><bidder><increase>4.50</increase></bidder></open_auction> into /site/open_auctions`,
		`delete /site/open_auctions/open_auction/bidder`,
		`replace /site/people/person/name with <name>Renamed Person</name>`,
		`delete /site/people/person`,
	}
)

// expectedState is the oracle for one published epoch: for every view, the
// rows a fresh pattern evaluation produces at that document version, and
// for every fixed XPath query, its matches — all precomputed by the shadow
// replayer, wire-encoded for direct comparison with server responses.
type expectedState struct {
	views   map[string][]RowJSON
	matches map[string][]MatchJSON
}

// shadowOracle replays the exact statement sequence on an independent
// engine and records, keyed by engine version, the state every published
// epoch must show. Versions advance identically in both engines because
// both apply the same statements to the same initial document and version
// bumps are a deterministic function of the statement sequence. Each
// tenant gets its own oracle: the shadows never mix, which is exactly the
// isolation property under test.
type shadowOracle struct {
	eng *core.Engine

	mu       sync.RWMutex
	expected map[uint64]*expectedState
}

func newShadowOracle(t *testing.T, docXML string) *shadowOracle {
	t.Helper()
	doc, err := xmltree.ParseString(docXML)
	if err != nil {
		t.Fatal(err)
	}
	o := &shadowOracle{
		eng:      core.New(doc, core.WithMetrics(obs.New())),
		expected: make(map[uint64]*expectedState),
	}
	for _, name := range stressViews {
		if _, err := o.eng.AddView(name, xmark.View(name)); err != nil {
			t.Fatalf("shadow add view %s: %v", name, err)
		}
	}
	o.record()
	return o
}

// record captures the oracle state at the shadow engine's current version,
// recomputing every view from scratch (the acceptance criterion: published
// rows must equal fresh recomputation at that document version).
func (o *shadowOracle) record() {
	st := &expectedState{
		views:   make(map[string][]RowJSON, len(stressViews)),
		matches: make(map[string][]MatchJSON, len(stressQueries)),
	}
	for _, mv := range o.eng.Views {
		rows := algebra.Materialize(o.eng.Doc, mv.Pattern)
		st.views[mv.Name] = rowsToJSON(mv.Pattern, rows)
	}
	for _, q := range stressQueries {
		nodes := xpath.Eval(o.eng.Doc, xpath.MustParse(q))
		ms := make([]MatchJSON, 0, len(nodes))
		for _, n := range nodes {
			ms = append(ms, MatchJSON{ID: n.ID.String(), Label: n.Label(), Value: n.StringValue()})
		}
		st.matches[q] = ms
	}
	o.mu.Lock()
	o.expected[o.eng.Version()] = st
	o.mu.Unlock()
}

// step applies one statement to the shadow engine and records the oracle
// state for the version it lands on, returning that version. It must be
// called BEFORE the same statement is sent to the server, so that by the
// time any reader can observe the new epoch its expectation exists.
func (o *shadowOracle) step(t *testing.T, src string) uint64 {
	t.Helper()
	if _, err := o.eng.ApplyStatement(mustStatement(t, src)); err != nil {
		t.Fatalf("shadow apply %q: %v", src, err)
	}
	o.record()
	return o.eng.Version()
}

func (o *shadowOracle) at(version uint64) *expectedState {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.expected[version]
}

// rowsToJSON wire-encodes materialized rows exactly as the HTTP layer does.
func rowsToJSON(p *pattern.Pattern, rows []algebra.Row) []RowJSON {
	out := make([]RowJSON, 0, len(rows))
	for _, row := range rows {
		rj := RowJSON{Count: row.Count, Entries: make([]EntryJSON, 0, len(row.Entries))}
		for _, e := range row.Entries {
			rj.Entries = append(rj.Entries, EntryJSON{
				Label: p.Nodes[e.NodeIdx].Label,
				ID:    e.ID.String(),
				Val:   e.Val,
				Cont:  e.Cont,
			})
		}
		out = append(out, rj)
	}
	return out
}

func equalRowJSON(a, b []RowJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || len(a[i].Entries) != len(b[i].Entries) {
			return false
		}
		for j := range a[i].Entries {
			if a[i].Entries[j] != b[i].Entries[j] {
				return false
			}
		}
	}
	return true
}

func equalMatchJSON(a, b []MatchJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStressReadersVsWriters is the multi-tenant serving layer's isolation
// acceptance test: two WAL-backed tenants share one registry and one HTTP
// listener; each has its own writer streaming update statements while 8
// concurrent readers hammer both tenants' view and XPath endpoints. Every
// response must name its tenant, carry a published epoch version, versions
// must be monotone per reader per tenant, and the payload must equal a
// fresh recomputation of the view (or query) at exactly that version's
// document state in THAT tenant's shadow — i.e. readers never observe a
// torn, half-propagated, unpublished, or cross-tenant state. Run it under
// -race.
func TestStressReadersVsWriters(t *testing.T) {
	const (
		readers    = 8
		statements = 120 // per tenant
	)
	tenants := []string{"tide", "pool"}
	// Different scales so the two tenants' documents — and therefore their
	// oracles — are never accidentally interchangeable.
	docs := map[string]string{
		tenants[0]: xmark.GenerateSmall(1),
		tenants[1]: xmark.GenerateSmall(2),
	}

	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{QueueDepth: 32, Metrics: obs.New()},
		DataDir:      t.TempDir(),
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultViews: testViewSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracles := make(map[string]*shadowOracle, len(tenants))
	for _, name := range tenants {
		if _, err := reg.Create(name, docs[name], nil); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		oracles[name] = newShadowOracle(t, docs[name])
		sh, _ := reg.Get(name)
		if sv, ev := oracles[name].eng.Version(), sh.Epoch().Version; sv != ev {
			t.Fatalf("%s: shadow version %d != serving version %d at start", name, sv, ev)
		}
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	errc := make(chan string, readers+len(tenants))
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Sprintf(format, args...):
		default:
		}
	}
	var wg sync.WaitGroup
	var readTotal [readers]int
	client := &http.Client{Timeout: 10 * time.Second}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastVersion := make(map[string]uint64, len(tenants))
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tenant := tenants[i%len(tenants)]
				oracle := oracles[tenant]
				base := ts.URL + "/v1/db/" + tenant
				var version uint64
				switch (i / len(tenants)) % 4 {
				case 0, 1: // view reads
					name := stressViews[(i/2)%len(stressViews)]
					var vr ViewResponse
					resp, err := client.Get(base + "/views/" + name)
					if err != nil {
						fail("reader %d: GET view: %v", r, err)
						return
					}
					code := resp.StatusCode
					err = json.NewDecoder(resp.Body).Decode(&vr)
					resp.Body.Close()
					if err != nil || code != http.StatusOK {
						fail("reader %d: %s view %s: status %d err %v", r, tenant, name, code, err)
						return
					}
					if vr.Tenant != tenant {
						fail("reader %d: asked %s, response stamped %q", r, tenant, vr.Tenant)
						return
					}
					exp := oracle.at(vr.Version)
					if exp == nil {
						fail("reader %d: %s view %s response at unpublished version %d", r, tenant, name, vr.Version)
						return
					}
					if !equalRowJSON(vr.Rows, exp.views[name]) {
						fail("reader %d: %s view %s at version %d does not equal fresh recomputation (%d rows, want %d)",
							r, tenant, name, vr.Version, len(vr.Rows), len(exp.views[name]))
						return
					}
					version = vr.Version
				case 2, 3: // XPath reads
					q := stressQueries[i%len(stressQueries)]
					var xr XPathResponse
					resp, err := client.Get(base + "/xpath?q=" + url.QueryEscape(q))
					if err != nil {
						fail("reader %d: GET xpath: %v", r, err)
						return
					}
					code := resp.StatusCode
					err = json.NewDecoder(resp.Body).Decode(&xr)
					resp.Body.Close()
					if err != nil || code != http.StatusOK {
						fail("reader %d: %s xpath %s: status %d err %v", r, tenant, q, code, err)
						return
					}
					if xr.Tenant != tenant {
						fail("reader %d: asked %s, xpath response stamped %q", r, tenant, xr.Tenant)
						return
					}
					exp := oracle.at(xr.Version)
					if exp == nil {
						fail("reader %d: %s xpath response at unpublished version %d", r, tenant, xr.Version)
						return
					}
					if !equalMatchJSON(xr.Matches, exp.matches[q]) {
						fail("reader %d: %s xpath %s at version %d does not equal fresh evaluation (%d matches, want %d)",
							r, tenant, q, xr.Version, len(xr.Matches), len(exp.matches[q]))
						return
					}
					version = xr.Version
				}
				if version < lastVersion[tenant] {
					fail("reader %d: %s version went backwards: %d after %d", r, tenant, version, lastVersion[tenant])
					return
				}
				lastVersion[tenant] = version
				readTotal[r]++
			}
		}(r)
	}

	// One writer per tenant: shadow-replay first (so the expectation exists
	// before the epoch can be published), then send the same statement
	// through the server, retrying 429 backpressure rejections. The two
	// writers run concurrently — cross-tenant ordering is deliberately
	// unsynchronized.
	var writerWG sync.WaitGroup
	for _, tenant := range tenants {
		writerWG.Add(1)
		go func(tenant string) {
			defer writerWG.Done()
			oracle := oracles[tenant]
			base := ts.URL + "/v1/db/" + tenant
			for i := 0; i < statements; i++ {
				src := stressVocabulary[i%len(stressVocabulary)]
				wantVersion := oracle.step(t, src)
				for {
					resp, ur := postUpdate(t, base, src)
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						fail("%s statement %d %q: status %d", tenant, i, src, resp.StatusCode)
						return
					}
					if ur.Tenant != tenant {
						fail("%s statement %d: ack stamped tenant %q", tenant, i, ur.Tenant)
						return
					}
					if ur.Version != wantVersion {
						fail("%s statement %d %q: server version %d, shadow version %d — engines diverged",
							tenant, i, src, ur.Version, wantVersion)
						return
					}
					break
				}
			}
		}(tenant)
	}
	writerWG.Wait()

	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	for r, n := range readTotal {
		if n < 10 {
			t.Fatalf("reader %d performed only %d reads — not a concurrent workload", r, n)
		}
	}

	// Final state check: each tenant's last epoch equals its own shadow's
	// final state.
	for _, tenant := range tenants {
		sh, err := reg.Get(tenant)
		if err != nil {
			t.Fatal(err)
		}
		snap := sh.Epoch()
		oracle := oracles[tenant]
		if snap.Version != oracle.eng.Version() {
			t.Fatalf("%s: final epoch version %d != shadow version %d", tenant, snap.Version, oracle.eng.Version())
		}
		exp := oracle.at(snap.Version)
		for i := range snap.Views {
			vs := &snap.Views[i]
			if !equalRowJSON(rowsToJSON(vs.Pattern, slices.Concat(vs.Rows...)), exp.views[vs.Name]) {
				t.Fatalf("%s: final epoch view %s diverges from fresh recomputation", tenant, vs.Name)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
