// Package client is the typed Go client for the xivm multi-tenant serving
// API (internal/server): admin-plane database lifecycle (create / drop /
// list), per-database data plane (views / xpath / update), uniform
// error-envelope decoding into *APIError, and transparent retry of 429
// backpressure rejections honoring the server's Retry-After header.
//
//	c := client.New("http://localhost:8080")
//	c.CreateDB(ctx, client.CreateDB{Name: "tenant1", Document: "<site/>"})
//	db := c.DB("tenant1")
//	db.Update(ctx, `insert <x/> into /site`)
//	db.View(ctx, "Q1")
//
// Request bodies are appended, not marshalled, and the responses of
// DB.View, DB.XPath and DB.Update are decoded by the wire decoder
// (server/encode.go, server/decode.go): a response owns its strings, one
// arena that holds exactly them, and the buffer its body was read into goes
// back to a pool for the next read. Holding a single ID or value holds that
// response's arena, never its body.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"xivm/internal/server"
)

// APIError is a decoded error envelope: the HTTP status plus the server's
// {"error": {"code", "message", "tenant"}} body.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine-readable envelope code (server.Code*)
	Message string
	Tenant  string
}

func (e *APIError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("xivm api: %s (%d %s, tenant %s)", e.Message, e.Status, e.Code, e.Tenant)
	}
	return fmt.Sprintf("xivm api: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsRetryable reports whether the request may succeed if repeated: 429
// backpressure is the designed overload signal.
func (e *APIError) IsRetryable() bool { return e.Status == http.StatusTooManyRequests }

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client (timeouts, transports).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a 429 is retried before surfacing the
// APIError (default 10). Zero disables retrying.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// retryCap caps one wait between retries, a Retry-After included, so a
// misbehaving server cannot park the client.
const retryCap = time.Second

// Client talks to one xivm server. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	rnd     func() float64 // jitter source in [0,1); rand.Float64 by default
}

// New builds a client for the server at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 10,
		rnd:     rand.Float64,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request, retrying 429s, and decodes the 2xx body into out
// (when non-nil) or the error envelope into an *APIError otherwise.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		apiErr, err := decode(resp, out)
		if err != nil {
			return err
		}
		if apiErr == nil {
			return nil
		}
		if !apiErr.IsRetryable() || attempt >= c.retries {
			return apiErr
		}
		if err := c.backoff(ctx, attempt, resp.Header.Get("Retry-After")); err != nil {
			return err
		}
	}
}

// backoff sleeps between retry attempts. A server-suggested Retry-After
// (seconds) is honored verbatim, capped. Without one the wait grows
// exponentially from 10ms with equal jitter, capped at retryCap — a fixed
// short pause would have every rejected client of an overloaded shard
// retry in lockstep, re-creating the very queue spike that produced the
// 429s.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter string) error {
	t := time.NewTimer(backoffDelay(attempt, retryAfter, retryCap, c.rnd))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffBase is the first no-header retry delay; it doubles per attempt.
const backoffBase = 10 * time.Millisecond

// backoffDelay computes the attempt'th wait. With a parsable Retry-After
// it is that many seconds, capped. Otherwise it is equal-jittered
// exponential backoff: half of min(cap, 10ms<<attempt) guaranteed plus a
// random half, so concurrent retriers spread out instead of thundering
// back together.
func backoffDelay(attempt int, retryAfter string, limit time.Duration, rnd func() float64) time.Duration {
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > limit {
			d = limit
		}
		return d
	}
	d := limit
	// Guard the shift: past 30 doublings the exponential exceeds any sane
	// cap anyway.
	if attempt < 30 {
		if e := backoffBase << uint(attempt); e < limit {
			d = e
		}
	}
	half := d / 2
	return half + time.Duration(rnd()*float64(d-half))
}

// decode consumes the response body: 2xx decodes into out, everything else
// decodes the error envelope (falling back to the raw body when the server
// did not produce one).
func decode(resp *http.Response, out any) (*APIError, error) {
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil, nil
		}
		var err error
		if n := resp.ContentLength; n > 0 {
			// The server said how long the body is: read it into one pooled
			// buffer, where a streaming decoder would grow its own by
			// doubling, allocating the body several times over.
			bp := bodyPool.Get().(*[]byte)
			var raw []byte
			if raw, err = server.ReadBody(*bp, resp.Body, n, n); err == nil && int64(len(raw)) < n {
				err = io.ErrUnexpectedEOF
			}
			if err == nil {
				if u, ok := out.(json.Unmarshaler); ok {
					err = u.UnmarshalJSON(raw) // the wire types, which keep none of raw
				} else {
					err = json.Unmarshal(raw, out)
				}
			}
			*bp = raw[:0]
			bodyPool.Put(bp)
		} else {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		if err != nil {
			return nil, fmt.Errorf("xivm api: decoding %d response: %w", resp.StatusCode, err)
		}
		return nil, nil
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env server.ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
		return &APIError{
			Status:  resp.StatusCode,
			Code:    server.CodeInternal,
			Message: strings.TrimSpace(string(raw)),
		}, nil
	}
	return &APIError{
		Status:  resp.StatusCode,
		Code:    env.Error.Code,
		Message: env.Error.Message,
		Tenant:  env.Error.Tenant,
	}, nil
}

// bodyPool holds the buffers sized response bodies are read into. A
// buffer grows to the largest body it has carried and is let go by the
// collector, as the server's response buffers are.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// CreateDB is the admin-plane create request; Document and Views may be
// empty when the server has defaults.
type CreateDB struct {
	Name     string
	Document string
	Views    []server.ViewSpec
}

// CreateDB creates a database (POST /v1/db).
func (c *Client) CreateDB(ctx context.Context, req CreateDB) (server.CreateDBResponse, error) {
	var out server.CreateDBResponse
	cr := server.CreateDBRequest{Name: req.Name, Document: req.Document, Views: req.Views}
	err := c.do(ctx, http.MethodPost, "/v1/db", cr.AppendJSON(nil), &out)
	return out, err
}

// DropDB drops a database (DELETE /v1/db/{name}): its queue drains, its
// backend closes, and its directory is deleted crash-safely.
func (c *Client) DropDB(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/db/"+url.PathEscape(name), nil, nil)
}

// ListDBs lists every database with its epoch/queue/size stats
// (GET /v1/db).
func (c *Client) ListDBs(ctx context.Context) ([]server.TenantStat, error) {
	var out server.ListDBsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/db", nil, &out); err != nil {
		return nil, err
	}
	return out.Databases, nil
}

// DB returns a handle on one database's data plane.
func (c *Client) DB(name string) *DB { return &DB{c: c, path: "/v1/db/" + url.PathEscape(name)} }

// DB is the data-plane handle for one database.
type DB struct {
	c    *Client
	path string
}

// View fetches one view's materialized rows (GET /v1/db/{name}/views/{view}).
func (d *DB) View(ctx context.Context, view string) (server.ViewResponse, error) {
	var out server.ViewResponse
	err := d.c.do(ctx, http.MethodGet, d.path+"/views/"+url.PathEscape(view), nil, &out)
	return out, err
}

// XPath evaluates an XPath query against the database's serving epoch
// (GET /v1/db/{name}/xpath?q=…).
func (d *DB) XPath(ctx context.Context, query string) (server.XPathResponse, error) {
	var out server.XPathResponse
	err := d.c.do(ctx, http.MethodGet, d.path+"/xpath?q="+url.QueryEscape(query), nil, &out)
	return out, err
}

// Update applies one statement (POST /v1/db/{name}/update), retrying 429
// backpressure rejections with Retry-After. The returned Version is the
// epoch at which the update is readable.
func (d *DB) Update(ctx context.Context, statement string) (server.UpdateResponse, error) {
	var out server.UpdateResponse
	ur := server.UpdateRequest{Statement: statement}
	body := ur.AppendJSON(nil)
	err := d.c.do(ctx, http.MethodPost, d.path+"/update", body, &out)
	return out, err
}

// ReplSnapshot fetches the newest checkpoint image for snapshot-first
// catch-up (GET /v1/db/{name}/repl/snapshot). The caller must verify it
// with wal.NewReplImage before trusting any byte of it.
func (d *DB) ReplSnapshot(ctx context.Context) (server.ReplSnapshotResponse, error) {
	var out server.ReplSnapshotResponse
	err := d.c.do(ctx, http.MethodGet, d.path+"/repl/snapshot", nil, &out)
	return out, err
}

// ReplFrames is one stream read: raw WAL frames from LSN from (up to
// maxBytes when positive), plus the next LSN to request and the leader's
// log tip at serve time. followerID, when non-empty, pins the leader's log
// suffix against truncation while this follower tails
// (GET /v1/db/{name}/repl/stream?from=…). A server answer of 410
// snapshot_required surfaces as an *APIError with that code: re-sync via
// ReplSnapshot.
func (d *DB) ReplFrames(ctx context.Context, from uint64, maxBytes int, followerID string) (frames []byte, next, leaderLast uint64, err error) {
	path := d.path + "/repl/stream?from=" + strconv.FormatUint(from, 10)
	if maxBytes > 0 {
		path += "&max_bytes=" + strconv.Itoa(maxBytes)
	}
	if followerID != "" {
		path += "&follower=" + url.QueryEscape(followerID)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.c.base+path, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	resp, err := d.c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr, derr := decode(resp, nil)
		if derr != nil {
			return nil, 0, 0, derr
		}
		return nil, 0, 0, apiErr
	}
	defer resp.Body.Close()
	frames, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	next, err = strconv.ParseUint(resp.Header.Get(server.HeaderReplNext), 10, 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("xivm api: bad %s header: %w", server.HeaderReplNext, err)
	}
	leaderLast, err = strconv.ParseUint(resp.Header.Get(server.HeaderReplLast), 10, 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("xivm api: bad %s header: %w", server.HeaderReplLast, err)
	}
	return frames, next, leaderLast, nil
}
