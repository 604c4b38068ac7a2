package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/update"
)

// Wire types for the JSON API. They are exported so clients
// (internal/client, the xivmload generator, tests) can decode responses
// without re-declaring the shapes. Every data-plane response names the
// tenant it came from and the serving epoch (Version) it reflects: a
// reader holding responses from several tenants can assert per-tenant
// version agreement without out-of-band state.

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`  // "ok" or "draining"
	Role    string `json:"role"`    // "leader" or "follower"
	Tenants int    `json:"tenants"` // databases currently routed
	Queue   int    `json:"queue"`   // Σ queued updates across tenants
	// MaxLagLSN is the worst replication lag across tenants: on a follower,
	// max(last_lsn - applied_lsn); always 0 on a leader.
	MaxLagLSN uint64 `json:"max_lag_lsn,omitempty"`
	// LabelCodes and LabelRefused gauge the process-wide label table every
	// tenant's keys and nodes name their labels by (dewey.LabelStats): the
	// codes it has assigned, of at most 2^14, and how often it has refused a
	// label since — a refused label costs its bytes in every key and a
	// walk of the key for every read of a node's label.
	LabelCodes   int `json:"label_codes"`
	LabelRefused int `json:"label_refused"`
}

// ViewInfo is one view's summary in ViewsResponse.
type ViewInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

// ViewsResponse answers GET /v1/db/{db}/views.
type ViewsResponse struct {
	Tenant  string     `json:"tenant"`
	Version uint64     `json:"version"`
	Views   []ViewInfo `json:"views"`
}

// EntryJSON is one stored pattern-node binding of a view row.
type EntryJSON struct {
	Label string `json:"label"`
	ID    string `json:"id"`
	Val   string `json:"val,omitempty"`
	Cont  string `json:"cont,omitempty"`
}

// RowJSON is one materialized view row.
type RowJSON struct {
	Count   int         `json:"count"`
	Entries []EntryJSON `json:"entries"`
}

// ViewResponse answers GET /v1/db/{db}/views/{name}.
type ViewResponse struct {
	Tenant  string    `json:"tenant"`
	Version uint64    `json:"version"`
	Name    string    `json:"name"`
	Rows    []RowJSON `json:"rows"`
}

// MatchJSON is one node matched by an XPath query.
type MatchJSON struct {
	ID    string `json:"id"`
	Label string `json:"label"`
	Value string `json:"value"`
}

// XPathResponse answers GET /v1/db/{db}/xpath. Plan is populated only
// when the request asked explain=1: the rewrite plan that served the
// query ("single-view rewrite over V", "stitch of ...", "intersection of
// ..."), or "treewalk" when the document was walked directly.
type XPathResponse struct {
	Tenant  string      `json:"tenant"`
	Version uint64      `json:"version"`
	Query   string      `json:"query"`
	Plan    string      `json:"plan,omitempty"`
	Matches []MatchJSON `json:"matches"`
}

// UpdateViewJSON is one view's maintenance summary in UpdateResponse.
type UpdateViewJSON struct {
	Name         string `json:"name"`
	RowsAdded    int    `json:"rows_added"`
	RowsRemoved  int    `json:"rows_removed"`
	RowsModified int    `json:"rows_modified"`
	Skipped      bool   `json:"skipped,omitempty"`
	Recomputed   bool   `json:"recomputed,omitempty"`
}

// UpdateRequest is the body of POST /v1/db/{db}/update.
type UpdateRequest struct {
	Statement string `json:"statement"`
}

// UpdateResponse answers POST /v1/db/{db}/update. Version is the epoch at
// which the update's effects are readable: a GET observing version >= this
// sees them.
type UpdateResponse struct {
	Tenant  string           `json:"tenant"`
	Version uint64           `json:"version"`
	Targets int              `json:"targets"`
	Views   []UpdateViewJSON `json:"views"`
}

// Handler returns the multi-tenant HTTP API.
//
// Data plane (all reads served from the tenant's last published epoch —
// they never block on any writer, and every response names its tenant and
// the exact epoch it reflects; updates block until applied and published,
// or are rejected with the uniform error envelope: 429 queue_full when the
// tenant's queue is saturated, 503 shutting_down while draining, 504
// timeout past the deadline):
//
//	GET  /v1/db/{db}/views         the tenant's views: names and row counts
//	GET  /v1/db/{db}/views/{name}  one view's materialized rows
//	GET  /v1/db/{db}/xpath?q=PATH  evaluate XPath against the tenant's epoch doc
//	POST /v1/db/{db}/update        apply one statement {"statement": "..."}
//	GET  /v1/db/{db}/metrics       the tenant's stats + server.tenant.* counters
//
// Admin plane:
//
//	GET    /v1/db        list tenants with per-tenant epoch/queue/size stats
//	POST   /v1/db        create {"name", "document"?, "views"?} (crash-safe)
//	DELETE /v1/db/{db}   drop: drain, close, delete the WAL dir (crash-safe)
//
// Process-wide:
//
//	GET /healthz     liveness + tenant count + total queued updates + label table
//	GET /v1/metrics  JSON dump of the whole metrics registry
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealth)
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)

	mux.HandleFunc("GET /v1/db", r.handleListDBs)
	mux.HandleFunc("POST /v1/db", r.handleCreateDB)
	mux.HandleFunc("DELETE /v1/db/{db}", r.handleDropDB)

	mux.HandleFunc("GET /v1/db/{db}/views", r.handleViews)
	mux.HandleFunc("GET /v1/db/{db}/views/{name}", r.handleView)
	mux.HandleFunc("GET /v1/db/{db}/xpath", r.handleXPath)
	mux.HandleFunc("POST /v1/db/{db}/update", r.handleUpdate)
	mux.HandleFunc("GET /v1/db/{db}/metrics", r.handleTenantMetrics)

	mux.HandleFunc("GET /v1/db/{db}/repl/status", r.handleReplStatus)
	mux.HandleFunc("GET /v1/db/{db}/repl/stream", r.handleReplStream)
	mux.HandleFunc("GET /v1/db/{db}/repl/snapshot", r.handleReplSnapshot)

	return r.countRequests(mux)
}

func (r *Registry) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.m.httpRequests.Inc()
		next.ServeHTTP(w, req)
	})
}

// tenantShard resolves the {db} path segment, answering the 404 envelope
// itself when the tenant does not exist.
func (r *Registry) tenantShard(w http.ResponseWriter, req *http.Request) (*Shard, bool) {
	name := req.PathValue("db")
	sh, err := r.Get(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, CodeNoSuchDB, name, err.Error())
		return nil, false
	}
	return sh, true
}

func (r *Registry) handleHealth(w http.ResponseWriter, req *http.Request) {
	status := "ok"
	if r.draining() {
		status = "draining"
	}
	role := "leader"
	if r.cfg.FollowerOf != "" {
		role = "follower"
	}
	r.mu.RLock()
	tenants := len(r.shards)
	queue := 0
	var maxLag uint64
	for _, sh := range r.shards {
		queue += sh.QueueLen()
		if applied, last := sh.LSNs(); last > applied && last-applied > maxLag {
			maxLag = last - applied
		}
	}
	r.mu.RUnlock()
	codes, refused := dewey.LabelStats()
	writeJSON(w, http.StatusOK, HealthResponse{Status: status, Role: role, Tenants: tenants, Queue: queue, MaxLagLSN: maxLag,
		LabelCodes: codes, LabelRefused: refused})
}

func (r *Registry) handleViews(w http.ResponseWriter, req *http.Request) {
	defer r.observeSince(r.m.queryLatency, time.Now())
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return
	}
	snap := sh.Epoch()
	resp := ViewsResponse{Tenant: snap.Tenant, Version: snap.Version, Views: make([]ViewInfo, 0, len(snap.Views))}
	for i := range snap.Views {
		resp.Views = append(resp.Views, ViewInfo{Name: snap.Views[i].Name, Rows: snap.Views[i].Rows.Len()})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Registry) handleView(w http.ResponseWriter, req *http.Request) {
	defer r.observeSince(r.m.queryLatency, time.Now())
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return
	}
	snap := sh.Epoch()
	vs := snap.View(req.PathValue("name"))
	if vs == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, snap.Tenant, "no such view: "+req.PathValue("name"))
		return
	}
	bp := bodyPool.Get().(*[]byte)
	*bp = appendViewResponse((*bp)[:0], snap, vs)
	writeBody(w, *bp)
	bodyPool.Put(bp)
}

func (r *Registry) handleXPath(w http.ResponseWriter, req *http.Request) {
	defer r.observeSince(r.m.xpathLatency, time.Now())
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return
	}
	params := req.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, sh.Name(), "missing q parameter")
		return
	}
	// rewrite=0 forces the tree walk (the differential tests' oracle side);
	// explain=1 echoes the plan that served the query.
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, err := r.appendXPath((*bp)[:0], sh, sh.Epoch(), q, params.Get("rewrite") != "0", params.Get("explain") == "1")
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, sh.Name(), err.Error())
		return
	}
	*bp = body
	writeBody(w, body)
}

func (r *Registry) handleUpdate(w http.ResponseWriter, req *http.Request) {
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return
	}
	if leader := r.cfg.FollowerOf; leader != "" {
		writeErr(w, http.StatusForbidden, CodeReadOnly, sh.Name(),
			"read-only follower: send writes to the leader at "+leader)
		return
	}
	var ur UpdateRequest
	if !decodeBody(w, req, maxUpdateBody, sh.Name(), &ur) {
		return
	}
	st, err := update.Parse(ur.Statement)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, sh.Name(), err.Error())
		return
	}
	ctx := req.Context()
	if d := sh.cfg.requestTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	rep, version, err := sh.Apply(ctx, st)
	if err != nil {
		writeApplyError(w, sh.Name(), err)
		return
	}
	resp := UpdateResponse{Tenant: sh.Name(), Version: version, Targets: rep.Targets, Views: make([]UpdateViewJSON, 0, len(rep.Views))}
	for i := range rep.Views {
		vr := &rep.Views[i]
		resp.Views = append(resp.Views, UpdateViewJSON{
			Name:         vr.View.Name,
			RowsAdded:    vr.RowsAdded,
			RowsRemoved:  vr.RowsRemoved,
			RowsModified: vr.RowsModified,
			Skipped:      vr.Skipped,
			Recomputed:   vr.PredFallback || vr.Cancelled || vr.Panicked,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = r.m.reg.WriteJSON(w)
}

func (r *Registry) observeSince(h *obs.Histogram, t0 time.Time) {
	h.Observe(time.Since(t0))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
