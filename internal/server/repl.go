package server

import (
	"net/http"
	"strconv"

	"xivm/internal/wal"
)

// ReplSource is the replication surface a durable backend exposes; wal.DB
// implements it. All three methods are safe to call from HTTP handler
// goroutines concurrently with the shard's writer.
type ReplSource interface {
	// ReplStatusNow reports the log tip, newest checkpoint LSN, and the
	// connected-follower gauge.
	ReplStatusNow() wal.ReplStatus
	// LastLSN reports the log tip alone.
	LastLSN() uint64
	// ReplFrames pins follower id at from and returns up to maxBytes of
	// raw wire frames starting there, plus the next LSN to request.
	// wal.ErrLSNTruncated means the follower must re-sync from a snapshot.
	ReplFrames(id string, from uint64, maxBytes int) ([]byte, uint64, error)
	// ReplImageNow loads and verifies the newest checkpoint for shipping.
	ReplImageNow() (*wal.Image, error)
}

// Replication wire types and headers.

// ReplStatusResponse answers GET /v1/db/{db}/repl/status.
type ReplStatusResponse struct {
	Tenant string `json:"tenant"`
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// LastLSN is the last journaled record (on a follower: the leader's
	// advertised tip).
	LastLSN uint64 `json:"last_lsn"`
	// AppliedLSN is the LSN the serving epoch reflects.
	AppliedLSN uint64 `json:"applied_lsn"`
	// CheckpointLSN is the newest checkpoint — where snapshot-first
	// catch-up starts. Leader only.
	CheckpointLSN uint64 `json:"checkpoint_lsn,omitempty"`
	// Followers counts unexpired follower pins. Leader only.
	Followers int `json:"followers"`
}

// ReplSnapshotResponse answers GET /v1/db/{db}/repl/snapshot: the newest
// checkpoint image, wire-transportable. Manifest is the raw MANIFEST bytes
// exactly as written — the follower re-verifies it and the hashes inside
// bind Doc and Ords, so corruption anywhere en route is caught by the same
// checks recovery runs against the disk; the views it names are evaluated
// over the restored document. ([]byte fields travel as base64.)
type ReplSnapshotResponse struct {
	Tenant   string `json:"tenant"`
	LSN      uint64 `json:"lsn"`
	Manifest []byte `json:"manifest"`
	Doc      []byte `json:"doc"`
	// Ords is the document's Dewey ordinal stream (xmltree.EncodeOrds);
	// restoring it gives the follower the leader's exact node-ID space, so
	// responses are byte-identical at equal LSNs.
	Ords []byte `json:"ords"`
}

// Stream response headers. The body is raw concatenated WAL frames
// (application/octet-stream), self-describing and CRC-framed; the headers
// carry the positions a follower needs without decoding anything.
const (
	// HeaderReplNext is the LSN the next stream request should ask for.
	HeaderReplNext = "X-Xivm-Repl-Next"
	// HeaderReplLast is the leader's log tip when the response was built;
	// applied-vs-this is the follower's lag.
	HeaderReplLast = "X-Xivm-Repl-Last"
)

// replSource resolves the {db} shard and its replication surface, answering
// the error envelope itself when the tenant is missing or has no WAL.
func (r *Registry) replSource(w http.ResponseWriter, req *http.Request) (*Shard, ReplSource, bool) {
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return nil, nil, false
	}
	if sh.repl == nil {
		writeErr(w, http.StatusNotFound, CodeNoReplication, sh.Name(),
			"tenant has no write-ahead log to stream (in-memory or follower)")
		return nil, nil, false
	}
	return sh, sh.repl, true
}

func (r *Registry) handleReplStatus(w http.ResponseWriter, req *http.Request) {
	sh, ok := r.tenantShard(w, req)
	if !ok {
		return
	}
	resp := ReplStatusResponse{Tenant: sh.Name(), Role: "leader"}
	resp.AppliedLSN, resp.LastLSN = sh.LSNs()
	if sh.Replica() {
		resp.Role = "follower"
	} else if sh.repl != nil {
		st := sh.repl.ReplStatusNow()
		resp.CheckpointLSN = st.CheckpointLSN
		resp.Followers = st.Followers
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Registry) handleReplStream(w http.ResponseWriter, req *http.Request) {
	sh, src, ok := r.replSource(w, req)
	if !ok {
		return
	}
	q := req.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, sh.Name(), "bad or missing from parameter")
		return
	}
	maxBytes := 0
	if mb := q.Get("max_bytes"); mb != "" {
		if maxBytes, err = strconv.Atoi(mb); err != nil || maxBytes < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, sh.Name(), "bad max_bytes parameter")
			return
		}
	}
	frames, next, err := src.ReplFrames(q.Get("follower"), from, maxBytes)
	if err == wal.ErrLSNTruncated {
		r.m.replTruncatedHits.Inc()
		writeErr(w, http.StatusGone, CodeSnapshotRequired, sh.Name(),
			"lsn "+q.Get("from")+" truncated by checkpointing; re-sync from /repl/snapshot")
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, sh.Name(), err.Error())
		return
	}
	r.m.replStreams.Inc()
	r.m.replFrameBytes.Add(int64(len(frames)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderReplNext, strconv.FormatUint(next, 10))
	w.Header().Set(HeaderReplLast, strconv.FormatUint(src.ReplStatusNow().LastLSN, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frames)
}

func (r *Registry) handleReplSnapshot(w http.ResponseWriter, req *http.Request) {
	sh, src, ok := r.replSource(w, req)
	if !ok {
		return
	}
	img, err := src.ReplImageNow()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInternal, sh.Name(), err.Error())
		return
	}
	r.m.replSnapshots.Inc()
	writeJSON(w, http.StatusOK, ReplSnapshotResponse{
		Tenant:   sh.Name(),
		LSN:      img.Manifest.LSN,
		Manifest: img.RawManifest,
		Doc:      img.DocXML,
		Ords:     img.Ords,
	})
}
