package server

import "net/http"

// Admin-plane wire types.

// CreateDBRequest is the body of POST /v1/db. Document and Views are
// optional when the server was started with a default document / default
// views (xivm -listen -doc …).
type CreateDBRequest struct {
	Name     string     `json:"name"`
	Document string     `json:"document,omitempty"`
	Views    []ViewSpec `json:"views,omitempty"`
}

// CreateDBResponse answers POST /v1/db: the new tenant's identity, its
// first serving epoch, and the views materialized at creation.
type CreateDBResponse struct {
	Tenant  string     `json:"tenant"`
	Version uint64     `json:"version"`
	Views   []ViewInfo `json:"views"`
}

// ListDBsResponse answers GET /v1/db.
type ListDBsResponse struct {
	Databases []TenantStat `json:"databases"`
}

// DropDBResponse answers DELETE /v1/db/{db}.
type DropDBResponse struct {
	Tenant  string `json:"tenant"`
	Dropped bool   `json:"dropped"`
}

// TenantMetricsResponse answers GET /v1/db/{db}/metrics: the tenant's
// TenantStat plus its server.tenant.* counters.
type TenantMetricsResponse struct {
	TenantStat
	Applied  int64 `json:"applied"`
	Rejected int64 `json:"rejected"`
	Epochs   int64 `json:"epochs"`
}

func (r *Registry) handleListDBs(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, ListDBsResponse{Databases: r.Stats()})
}

func (r *Registry) handleCreateDB(w http.ResponseWriter, req *http.Request) {
	if leader := r.cfg.FollowerOf; leader != "" {
		writeErr(w, http.StatusForbidden, CodeReadOnly, "",
			"read-only follower: create databases on the leader at "+leader)
		return
	}
	var cr CreateDBRequest
	if !decodeBody(w, req, maxCreateBody, "", &cr) {
		return
	}
	sh, err := r.Create(cr.Name, cr.Document, cr.Views)
	if err != nil {
		writeLifecycleError(w, cr.Name, err)
		return
	}
	snap := sh.Epoch()
	resp := CreateDBResponse{Tenant: sh.Name(), Version: snap.Version, Views: make([]ViewInfo, 0, len(snap.Views))}
	for i := range snap.Views {
		resp.Views = append(resp.Views, ViewInfo{Name: snap.Views[i].Name, Rows: snap.Views[i].Rows.Len()})
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (r *Registry) handleDropDB(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("db")
	if leader := r.cfg.FollowerOf; leader != "" {
		writeErr(w, http.StatusForbidden, CodeReadOnly, name,
			"read-only follower: drop databases on the leader at "+leader)
		return
	}
	if err := r.Drop(req.Context(), name); err != nil {
		writeLifecycleError(w, name, err)
		return
	}
	writeJSON(w, http.StatusOK, DropDBResponse{Tenant: name, Dropped: true})
}

func (r *Registry) handleTenantMetrics(w http.ResponseWriter, req *http.Request) {
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, TenantMetricsResponse{
		TenantStat: sh.stat(),
		Applied:    sh.tm.applied.Value(),
		Rejected:   sh.tm.rejected.Value(),
		Epochs:     sh.tm.epochs.Value(),
	})
}
