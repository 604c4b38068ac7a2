package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/wal"
	"xivm/internal/xmltree"
)

// ViewSpec declares one view for tenant creation: a name and a tree
// pattern in the pattern syntax (pattern.Parse).
type ViewSpec struct {
	Name    string `json:"name"`
	Pattern string `json:"pattern"`
}

// RegistryConfig tunes a Registry. The zero value is an in-memory registry
// (nothing persisted) with default shard tuning and no tenants.
type RegistryConfig struct {
	// Shard is the per-tenant serving configuration (queue depth, request
	// timeout, metrics registry). Every tenant gets the same limits — the
	// queue-depth limit is per tenant, which is what keeps one hot tenant
	// from starving the rest.
	Shard Config
	// DataDir is the tenant root: each tenant owns <DataDir>/<name> with
	// its own WAL and checkpoints. Empty means in-memory tenants only.
	DataDir string
	// WAL is the per-tenant durability template (sync policy, segment
	// size, checkpoint cadence, engine options). Ignored when DataDir is
	// empty, except for WAL.Engine, which configures every engine the
	// registry serves: in-memory tenants and a follower's replicas too.
	WAL wal.Options
	// DefaultDoc seeds tenants created without a document of their own
	// (POST /v1/db with no "document"). Empty disables doc-less creation.
	DefaultDoc string
	// DefaultViews are registered on every tenant created without views of
	// its own.
	DefaultViews []ViewSpec

	// FollowerOf, when set, makes this a read-only follower registry: its
	// tenants are replica shards attached by the replication layer
	// (internal/repl) tailing the leader at this base URL. Updates and
	// admin-plane writes are rejected with code read_only pointing here.
	// DataDir must be empty — a follower keeps no log of its own; its
	// durable state IS the leader's.
	FollowerOf string

	// wrapBackend, when set, wraps every tenant's backend before the shard
	// is built — the test seam for gating or failing one tenant's applies.
	wrapBackend func(tenant string, b Backend) Backend
}

// xpathCacheSize caps the registry-wide LRU of compiled XPath programs
// serving /v1/db/{name}/xpath. Compiled programs are immutable and
// document-independent, so one cache serves every tenant and epoch. A
// variable so the eviction test can shrink it.
var xpathCacheSize = 256

// Registry hosts many tenants in one process: it owns the tenant lifecycle
// (crash-safe create, drop, list, recovery of every surviving tenant at
// open) and routes the HTTP API to per-tenant shards. All methods are safe
// for concurrent use.
//
// A tenant that fails to open is kept by name with its error until the
// process restarts: every route answers it with ErrTenantStopped, and it
// can be neither created nor dropped, so nothing replaces its directory.
// On a follower, so is a tenant whose image could not be restored
// (StopReplica), until the leader drops it.
type Registry struct {
	cfg   RegistryConfig
	m     *serverMetrics
	progs *qvm.Cache // compiled XPath programs, keyed by query string

	mu       sync.RWMutex
	shards   map[string]*Shard
	creating map[string]bool  // names reserved by in-flight Creates
	unopened map[string]error // tenants NewRegistry could not open, and a follower's StopReplica ones
	closed   bool
}

// NewRegistry builds a registry. With a DataDir it scans the tenant root,
// finishes any interrupted create or drop (see wal.ScanTenantRoot), and
// recovers every surviving tenant through the normal WAL open path — a
// process killed at any point reopens with exactly the tenants whose
// creation had been acknowledged and whose drop had not. A tenant that
// does not recover is kept stopped (see Registry); the others serve.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if _, err := compileViews(cfg.DefaultViews); err != nil {
		return nil, fmt.Errorf("server: default views: %w", err)
	}
	if cfg.DefaultDoc != "" {
		if _, err := xmltree.ParseString(cfg.DefaultDoc); err != nil {
			return nil, fmt.Errorf("server: default document: %w", err)
		}
	}
	if cfg.FollowerOf != "" && cfg.DataDir != "" {
		return nil, fmt.Errorf("server: a follower registry keeps no data dir of its own")
	}
	r := &Registry{
		cfg:      cfg,
		m:        newServerMetrics(cfg.Shard.Metrics),
		progs:    qvm.NewCache(xpathCacheSize),
		shards:   make(map[string]*Shard),
		creating: make(map[string]bool),
		unopened: make(map[string]error),
	}
	if cfg.DataDir == "" {
		return r, nil
	}
	names, _, err := wal.ScanTenantRoot(cfg.WAL.FS, cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		db, err := wal.Open(wal.TenantDir(cfg.DataDir, name), r.walOptions())
		if err != nil {
			r.unopened[name] = fmt.Errorf("%w: recovering %s: %w", ErrTenantStopped, name, err)
			continue
		}
		r.shards[name] = r.newShard(name, db, db.Close)
	}
	return r, nil
}

func (r *Registry) walOptions() wal.Options {
	opts := r.cfg.WAL
	if opts.Metrics == nil {
		opts.Metrics = r.cfg.Shard.Metrics
	}
	return opts
}

func (r *Registry) newShard(name string, b Backend, closer func() error) *Shard {
	// Capture the replication surface before any test wrapping hides it:
	// streaming reads raw segment files, which no wrapper intermediates.
	repl, _ := b.(ReplSource)
	if r.cfg.wrapBackend != nil {
		b = r.cfg.wrapBackend(name, b)
	}
	sh := NewShard(name, b, closer, r.cfg.Shard)
	sh.repl = repl
	if repl != nil {
		// The first epoch is the whole log's: opening replayed it.
		sh.appliedLSN.Store(repl.LastLSN())
	}
	return sh
}

// NewReplica builds and routes a read-only replica shard for a follower
// registry. The replication tailer owns eng and publishes every applied
// batch through PublishReplica; the registry serves reads from it like any
// other tenant. Re-attaching an existing name replaces the routed shard
// (the tailer does this after a snapshot-first re-sync builds a fresh
// engine).
func (r *Registry) NewReplica(name string, eng *core.Engine, appliedLSN, leaderLast uint64) (*Shard, error) {
	if r.cfg.FollowerOf == "" {
		return nil, fmt.Errorf("server: NewReplica on a non-follower registry")
	}
	if err := wal.ValidTenantName(name); err != nil {
		return nil, invalidError{err}
	}
	sh := NewReplicaShard(name, eng, appliedLSN, leaderLast, r.cfg.Shard)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	r.shards[name] = sh
	return sh, nil
}

// DropReplica unroutes a replica shard (the leader dropped the tenant).
func (r *Registry) DropReplica(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sh := r.shards[name]; sh != nil && sh.Replica() {
		delete(r.shards, name)
	}
	delete(r.unopened, name)
}

// StopReplica stops a follower's tenant whose tailer cannot go on: a routed
// replica keeps serving its last epoch, stopped (Shard.Stop), and a tenant
// that never had one is kept by name, stopped, as one NewRegistry could not
// open is, until DropReplica.
func (r *Registry) StopReplica(name string, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sh := r.shards[name]; sh != nil && sh.Replica() {
		sh.Stop(cause)
		return
	}
	r.unopened[name] = fmt.Errorf("%w: %w", ErrTenantStopped, cause)
}

// EngineOptions returns RegistryConfig.WAL.Engine, the options every engine
// the registry serves is built with; a follower restores its replicas with
// them.
func (r *Registry) EngineOptions() []core.Option { return r.cfg.WAL.Engine }

// compiledView is a validated ViewSpec.
type compiledView struct {
	name string
	src  string
	p    *pattern.Pattern
}

// compileViews validates view specs up front, so tenant creation either
// materializes every declared view or touches nothing.
func compileViews(specs []ViewSpec) ([]compiledView, error) {
	out := make([]compiledView, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return nil, invalid("view with empty name")
		}
		if seen[s.Name] {
			return nil, invalid("duplicate view %q", s.Name)
		}
		seen[s.Name] = true
		p, err := pattern.Parse(s.Pattern)
		if err != nil {
			return nil, invalid("view %s: %v", s.Name, err)
		}
		if len(p.StoredIndexes()) == 0 {
			return nil, invalid("view %s stores nothing", s.Name)
		}
		// The canonical rendering round-trips through pattern.Parse, which
		// is what the WAL journals.
		out = append(out, compiledView{name: s.Name, src: p.String(), p: p})
	}
	return out, nil
}

// Create materializes a new tenant: document parsed, views registered, WAL
// directory initialized (durable registries), shard started. docXML and
// views fall back to the registry's DefaultDoc/DefaultViews when empty.
// The name is reserved for the whole build, so concurrent Creates of the
// same name see ErrTenantExists, but Creates of different tenants — and
// all reads — proceed in parallel; the heavy materialization runs outside
// the registry lock.
func (r *Registry) Create(name, docXML string, views []ViewSpec) (*Shard, error) {
	if err := wal.ValidTenantName(name); err != nil {
		return nil, invalidError{err}
	}
	if docXML == "" {
		docXML = r.cfg.DefaultDoc
	}
	if docXML == "" {
		return nil, invalid("database %s: no document given and the server has no default", name)
	}
	specs := views
	if len(specs) == 0 {
		specs = r.cfg.DefaultViews
	}
	compiled, err := compileViews(specs)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRegistryClosed
	}
	if err := r.unopened[name]; err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if r.shards[name] != nil || r.creating[name] {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, name)
	}
	r.creating[name] = true
	r.mu.Unlock()
	release := func() {
		r.mu.Lock()
		delete(r.creating, name)
		r.mu.Unlock()
	}

	sh, err := r.buildTenant(name, docXML, compiled)
	if err != nil {
		release()
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		release()
		ctx, cancel := context.WithCancel(context.Background())
		_ = sh.Close(ctx)
		cancel()
		if r.cfg.DataDir != "" {
			_ = wal.DropTenant(r.cfg.WAL.FS, r.cfg.DataDir, name)
		}
		return nil, ErrRegistryClosed
	}
	r.shards[name] = sh
	delete(r.creating, name)
	r.mu.Unlock()
	return sh, nil
}

// buildTenant constructs the backend and shard for a reserved name. For
// durable tenants the crash-safety contract is wal.CreateWithViews's: the
// tenant exists, with every view, only once its initial checkpoint is
// published atomically after the view records are durable, so a kill
// mid-build leaves debris the next ScanTenantRoot removes.
func (r *Registry) buildTenant(name, docXML string, views []compiledView) (*Shard, error) {
	if r.cfg.DataDir == "" {
		doc, err := xmltree.ParseString(docXML)
		if err != nil {
			return nil, invalid("database %s: document: %v", name, err)
		}
		eng := core.New(doc, r.cfg.WAL.Engine...)
		named := make([]core.NamedPattern, len(views))
		for i, v := range views {
			named[i] = core.NamedPattern{Name: v.name, Pattern: v.p}
		}
		if err := eng.AddViews(named); err != nil {
			return nil, invalid("database %s: %v", name, err)
		}
		return r.newShard(name, EngineBackend{Eng: eng}, nil), nil
	}
	// wal.CreateWithViews parses before it touches the disk, so a bad
	// document is a clean 400, not an I/O error with a half-created
	// directory behind it.
	sources := make([]wal.ViewSource, len(views))
	for i, v := range views {
		sources[i] = wal.ViewSource{Name: v.name, Pattern: v.src}
	}
	db, err := wal.CreateWithViews(wal.TenantDir(r.cfg.DataDir, name), docXML, sources, r.walOptions())
	if err != nil {
		var syn *xmltree.SyntaxError
		if errors.As(err, &syn) {
			return nil, invalid("database %s: document: %v", name, syn)
		}
		return nil, fmt.Errorf("server: create tenant %s: %w", name, err)
	}
	return r.newShard(name, db, db.Close), nil
}

// Drop removes a tenant: it is unrouted immediately, its writer drains
// every accepted update, its backend closes, and (durable registries) its
// directory is deleted crash-safely — a kill mid-drop leaves a tombstone
// the next open finishes deleting, never a half-alive tenant. If ctx
// expires before the drain completes the tenant is re-routed and the drop
// reported failed.
func (r *Registry) Drop(ctx context.Context, name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRegistryClosed
	}
	sh := r.shards[name]
	if err := r.unopened[name]; err != nil {
		r.mu.Unlock()
		return err
	}
	if sh == nil {
		busy := r.creating[name]
		r.mu.Unlock()
		if busy {
			return fmt.Errorf("%w: %s (still being created)", ErrTenantExists, name)
		}
		return fmt.Errorf("%w: %s", ErrNoSuchTenant, name)
	}
	delete(r.shards, name)
	r.mu.Unlock()

	if err := sh.Close(ctx); err != nil {
		// Drain incomplete: the writer is still running, so the files must
		// stay. Put the tenant back and report failure.
		r.mu.Lock()
		r.shards[name] = sh
		r.mu.Unlock()
		return fmt.Errorf("server: drop %s: drain: %w", name, err)
	}
	if r.cfg.DataDir != "" {
		if err := wal.DropTenant(r.cfg.WAL.FS, r.cfg.DataDir, name); err != nil {
			return fmt.Errorf("server: drop %s: %w", name, err)
		}
	}
	return nil
}

// Get returns the named tenant's shard, ErrNoSuchTenant, or the
// ErrTenantStopped of a tenant the registry could not open.
func (r *Registry) Get(name string) (*Shard, error) {
	r.mu.RLock()
	sh, err := r.shards[name], r.unopened[name]
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if sh == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTenant, name)
	}
	return sh, nil
}

// Names returns the tenants currently routed, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// TenantStat is one tenant's row in List: identity plus the size and
// pressure numbers an operator dashboards. AppliedLSN/LastLSN make
// replication lag observable without the repl endpoints: on a leader
// LastLSN is the log tip and AppliedLSN the tip its serving epoch covers,
// the same once the writer has finished a run, behind it after a panic
// stopped the tenant; on a follower AppliedLSN is the serving position and
// LastLSN the leader's advertised tip, so LastLSN-AppliedLSN is the lag.
type TenantStat struct {
	Name       string `json:"name"`
	Version    uint64 `json:"version"` // serving epoch
	Queue      int    `json:"queue"`
	QueueCap   int    `json:"queue_cap"`
	Views      int    `json:"views"`
	Rows       int    `json:"rows"`      // Σ view rows at the serving epoch
	DocNodes   int    `json:"doc_nodes"` // document size at the serving epoch
	Role       string `json:"role,omitempty"`
	AppliedLSN uint64 `json:"applied_lsn,omitempty"`
	LastLSN    uint64 `json:"last_lsn,omitempty"`
}

func (s *Shard) stat() TenantStat {
	snap := s.Epoch()
	st := TenantStat{
		Name:     s.name,
		Version:  snap.Version,
		Queue:    s.QueueLen(),
		QueueCap: s.QueueCap(),
		Views:    len(snap.Views),
		DocNodes: snap.Doc().Size(),
	}
	for i := range snap.Views {
		st.Rows += snap.Views[i].Rows.Len()
	}
	st.AppliedLSN, st.LastLSN = s.LSNs()
	switch {
	case s.replica:
		st.Role = "follower"
	case s.repl != nil:
		st.Role = "leader"
	}
	return st
}

// Stats returns every tenant's TenantStat, sorted by name.
func (r *Registry) Stats() []TenantStat {
	r.mu.RLock()
	shards := make([]*Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		shards = append(shards, sh)
	}
	r.mu.RUnlock()
	out := make([]TenantStat, 0, len(shards))
	for _, sh := range shards {
		out = append(out, sh.stat())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Shutdown drains every tenant concurrently and closes their backends
// (syncing each WAL). It returns the first drain error, but attempts every
// tenant regardless. Safe to call more than once.
func (r *Registry) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	shards := make([]*Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		shards = append(shards, sh)
	}
	r.mu.Unlock()

	errs := make(chan error, len(shards))
	for _, sh := range shards {
		go func(sh *Shard) { errs <- sh.Close(ctx) }(sh)
	}
	var first error
	for range shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// draining reports whether Shutdown has begun.
func (r *Registry) draining() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}
