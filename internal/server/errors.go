package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Registry lifecycle errors. The HTTP layer maps them to envelope codes;
// programmatic callers test with errors.Is.
var (
	// ErrNoSuchTenant is returned for operations on a tenant the registry
	// does not hold (HTTP 404, code no_such_db).
	ErrNoSuchTenant = errors.New("server: no such database")
	// ErrTenantExists is returned by Create for a name already held or
	// being created (HTTP 409, code db_exists).
	ErrTenantExists = errors.New("server: database already exists")
	// ErrRegistryClosed is returned for lifecycle operations after the
	// registry began shutting down (HTTP 503, code shutting_down).
	ErrRegistryClosed = errors.New("server: registry shutting down")
)

// invalidError marks a client-side validation failure (bad tenant name,
// unparsable document or view pattern) so the HTTP layer answers 400
// instead of 500. errors.As unwraps it.
type invalidError struct{ err error }

func (e invalidError) Error() string { return e.err.Error() }
func (e invalidError) Unwrap() error { return e.err }

func invalid(format string, args ...any) error {
	return invalidError{fmt.Errorf(format, args...)}
}

// Error envelope codes. Every non-2xx response carries exactly one.
const (
	CodeBadRequest   = "bad_request"    // 400: malformed body, statement, query, or name
	CodeBodyTooLarge = "body_too_large" // 413: request body over the route's ceiling
	CodeNotFound     = "not_found"      // 404: no such view or route
	CodeNoSuchDB     = "no_such_db"     // 404: tenant does not exist
	CodeDBExists     = "db_exists"      // 409: create of an existing tenant
	CodeQueueFull    = "queue_full"     // 429: tenant's apply queue is saturated
	CodeShuttingDown = "shutting_down"  // 503: tenant or registry is draining
	CodeTimeout      = "timeout"        // 504: request deadline expired
	CodeApplyFailed  = "apply_failed"   // 422: the engine rejected the statement
	CodeInternal     = "internal"       // 500: everything else

	// Replication codes.
	CodeReadOnly         = "read_only"         // 403: write sent to a follower; the message names the leader
	CodeSnapshotRequired = "snapshot_required" // 410: requested LSN truncated; re-sync from the newest checkpoint
	CodeNoReplication    = "no_replication"    // 404: tenant has no WAL (in-memory), nothing to stream
)

// ErrorInfo is the body of the uniform error envelope: a machine-readable
// code, a human-readable message, and the tenant the request addressed
// (empty for admin-plane errors that are not about one tenant).
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Tenant  string `json:"tenant,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer:
// {"error": {"code", "message", "tenant"}}.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

// writeErr emits the error envelope with the given status and code.
func writeErr(w http.ResponseWriter, status int, code, tenant, message string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorInfo{Code: code, Message: message, Tenant: tenant}})
}

// Request-body ceilings: a body is decoded whole, so an unbounded one is
// unbounded memory. The create ceiling fits the largest document the
// serving layer is sized for (40 MB) JSON-escaped, with room.
const (
	maxUpdateBody = 1 << 20
	maxCreateBody = 256 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v. On
// failure it has answered — 413 for a body over the limit, declared or
// streamed, 400 for one that does not decode — and reports false.
func decodeBody(w http.ResponseWriter, req *http.Request, limit int64, tenant string, v any) bool {
	var tooLarge *http.MaxBytesError
	var err error
	if req.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit} // declared too large: not worth reading
	} else {
		err = json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(v)
	}
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, tenant,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		writeErr(w, http.StatusBadRequest, CodeBadRequest, tenant, "bad request body: "+err.Error())
	}
	return false
}

// writeApplyError maps an Apply failure to its envelope. The 429 carries
// Retry-After, which well-behaved clients (internal/client) honor.
func writeApplyError(w http.ResponseWriter, tenant string, err error) {
	switch {
	case errors.Is(err, ErrReadOnly):
		writeErr(w, http.StatusForbidden, CodeReadOnly, tenant, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, CodeQueueFull, tenant, err.Error())
	case errors.Is(err, ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, CodeShuttingDown, tenant, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, CodeTimeout, tenant, err.Error())
	case errors.Is(err, context.Canceled):
		// Client went away; 499-style. StatusGatewayTimeout is the closest
		// standard code that is unmistakably "not applied as far as you know".
		writeErr(w, http.StatusGatewayTimeout, CodeTimeout, tenant, err.Error())
	default:
		writeErr(w, http.StatusUnprocessableEntity, CodeApplyFailed, tenant, err.Error())
	}
}

// writeLifecycleError maps a Create/Drop failure to its envelope.
func writeLifecycleError(w http.ResponseWriter, tenant string, err error) {
	var inv invalidError
	switch {
	case errors.Is(err, ErrNoSuchTenant):
		writeErr(w, http.StatusNotFound, CodeNoSuchDB, tenant, err.Error())
	case errors.Is(err, ErrTenantExists):
		writeErr(w, http.StatusConflict, CodeDBExists, tenant, err.Error())
	case errors.Is(err, ErrRegistryClosed):
		writeErr(w, http.StatusServiceUnavailable, CodeShuttingDown, tenant, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeErr(w, http.StatusGatewayTimeout, CodeTimeout, tenant, err.Error())
	case errors.As(err, &inv):
		writeErr(w, http.StatusBadRequest, CodeBadRequest, tenant, err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, CodeInternal, tenant, err.Error())
	}
}
