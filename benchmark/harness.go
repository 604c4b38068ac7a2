package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync/atomic"
	"time"

	"xivm/internal/client"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/server"
	"xivm/internal/wal"
)

// harness is the system under test as a client sees it: an in-process
// server.Registry with a real data directory and fsync on every append,
// behind a real loopback listener, driven through internal/client.
type harness struct {
	cfg     server.RegistryConfig
	metrics *obs.Metrics // private registry: server, wal and core instruments
	rec     *recorder    // nil on the untraced run
	dir     string

	live atomic.Pointer[liveRegistry]
	hs   *http.Server
	base string
}

// liveRegistry pairs a registry with its (once-built) HTTP handler.
type liveRegistry struct {
	reg     *server.Registry
	handler http.Handler
}

// tenant is the database the measured phases run against.
const tenant = "bench"

func newHarness(scratch string, checkpointEvery int, rec *recorder) (*harness, error) {
	dir, err := os.MkdirTemp(scratch, "data-")
	if err != nil {
		return nil, err
	}
	h := &harness{metrics: obs.New(), rec: rec, dir: dir}
	engine := []core.Option{core.WithMetrics(h.metrics)}
	var fsys wal.FS
	if rec != nil {
		engine = append(engine, core.WithTracer(rec))
		fsys = tracingFS{FS: wal.OSFS, rec: rec}
	}
	h.cfg = server.RegistryConfig{
		Shard:   server.Config{Metrics: h.metrics},
		DataDir: dir,
		WAL: wal.Options{
			Sync:            wal.SyncAlways,
			CheckpointEvery: checkpointEvery,
			Metrics:         h.metrics,
			FS:              fsys,
			Engine:          engine,
		},
	}
	reg, err := server.NewRegistry(h.cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h.live.Store(&liveRegistry{reg, reg.Handler()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// The handler follows the registry pointer, so a recovery swaps the
	// registry under a listener that stays up.
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.live.Load().handler.ServeHTTP(w, req)
	})}
	go func() { _ = h.hs.Serve(ln) }()
	h.base = "http://" + ln.Addr().String()
	return h, nil
}

func (h *harness) registry() *server.Registry { return h.live.Load().reg }

// stopListening shuts the HTTP server down: the listener and every
// connection's goroutine and buffers go. A second call does nothing.
func (h *harness) stopListening() {
	if h.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx)
	h.hs = nil
}

// close stops the listener and the registry, lets go of both and removes
// the data directory. A second call does nothing.
func (h *harness) close() {
	h.stopListening()
	live := h.live.Swap(nil)
	if live == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = live.reg.Shutdown(ctx)
	os.RemoveAll(h.dir)
}

// restart is the recovery a crash-restart would run: drain and close the
// registry, then reopen every tenant from checkpoint plus WAL tail.
func (h *harness) restart(ctx context.Context) error {
	if err := h.registry().Shutdown(ctx); err != nil {
		return err
	}
	reg, err := server.NewRegistry(h.cfg)
	if err != nil {
		return err
	}
	h.live.Store(&liveRegistry{reg, reg.Handler()})
	return nil
}

// conn is one client goroutine's connection: a single keep-alive socket.
type conn struct {
	h  *harness
	hc *http.Client
	c  *client.Client
	db *client.DB
}

func (h *harness) newConn() *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	// No transparent retry: a 429 is a failed op here, not hidden latency.
	c := client.New(h.base, client.WithHTTPClient(hc), client.WithRetries(0))
	return &conn{h: h, hc: hc, c: c, db: c.DB(tenant)}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// walk evaluates q with ?rewrite=0, the forced tree walk internal/client
// has no method for; it decodes the same typed response client.XPath does.
func (c *conn) walk(ctx context.Context, q string) (server.XPathResponse, error) {
	var out server.XPathResponse
	u := c.h.base + "/v1/db/" + tenant + "/xpath?rewrite=0&q=" + url.QueryEscape(q)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// read issues one read op and returns what is compared by the gates: the
// version it was served at and a canonical body without the version.
func (c *conn) read(ctx context.Context, op readOp) (version uint64, body any, err error) {
	switch op.class {
	case classView:
		end := c.h.rec.begin("view", "client", false, true)
		vr, err := c.db.View(ctx, op.query)
		end(0)
		return vr.Version, vr.Rows, err
	case classWalk:
		end := c.h.rec.begin("xpath", "client", false, true)
		xr, err := c.walk(ctx, op.query)
		end(0)
		return xr.Version, xr.Matches, err
	default:
		end := c.h.rec.begin("xpath", "client", false, true)
		xr, err := c.db.XPath(ctx, op.query)
		end(0)
		return xr.Version, xr.Matches, err
	}
}

// update applies one statement and reports how many nodes it targeted.
func (c *conn) update(ctx context.Context, stmt string) (targets int, err error) {
	end := c.h.rec.begin("update", "client", true, true)
	ur, err := c.db.Update(ctx, stmt)
	end(0)
	return ur.Targets, err
}

// viewBodies fetches every view's rows as canonical JSON, for the
// byte-equality gates (the version stamp is left out: it moves with every
// update while the rows must not).
func (c *conn) viewBodies(ctx context.Context) (map[string]string, error) {
	out := map[string]string{}
	for _, v := range benchViews() {
		vr, err := c.db.View(ctx, v.Name)
		if err != nil {
			return nil, err
		}
		out[v.Name] = canonical(vr.Rows)
	}
	return out, nil
}

func canonical(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types always marshal
	}
	return string(b)
}

// docXML serialises the serving epoch's document. There is no HTTP route
// for it; the registry is in-process, so the gate reads it directly.
func (h *harness) docXML() (string, error) {
	sh, err := h.registry().Get(tenant)
	if err != nil {
		return "", err
	}
	return sh.Epoch().Doc().String(), nil
}

// counters is a point-in-time copy of the private registry; deltas between
// two copies at round boundaries are exact, since nothing else runs.
type counters struct {
	c map[string]int64
	h map[string]obs.HistogramSnapshot
}

func (h *harness) counters() counters {
	snap := h.metrics.Snapshot()
	out := counters{c: map[string]int64{}, h: map[string]obs.HistogramSnapshot{}}
	for _, c := range snap.Counters {
		out.c[c.Name] = c.Value
	}
	for _, hs := range snap.Histograms {
		out.h[hs.Name] = hs
	}
	return out
}

// delta is after−before for one counter.
func (a counters) delta(before counters, name string) int64 { return a.c[name] - before.c[name] }

// histMS is the histogram's summed time in ms, after−before.
func (a counters) histMS(before counters, name string) float64 {
	return float64(a.h[name].SumNS-before.h[name].SumNS) / 1e6
}
