package server

import "xivm/internal/obs"

// serverMetrics bundles the serving layer's instruments. Counters:
//
//	server.http.requests      HTTP requests handled (any route)
//	server.apply.enqueued     updates accepted into the queue
//	server.apply.count        statements applied successfully
//	server.apply.errors       statements that failed in the engine
//	server.apply.abandoned    queued statements whose client gave up first
//	server.abandoned_applied  statements applied and published whose client
//	                          had already abandoned the wait (the at-most-
//	                          once-observable corner of Shard.Apply)
//	server.apply.panics       panics recovered in the writer loop
//	server.batch.count        translated batches propagated as one delta
//	server.batch.statements   statements that rode a translated batch
//	server.batch.fallbacks    drained batches the planner rejected (also
//	                          keyed server.batch.fallback.<reason>)
//	server.reject.queue_full  updates rejected with ErrQueueFull (429)
//	server.reject.shutdown    updates rejected with ErrShuttingDown (503)
//	server.sync.errors        backend Sync failures during drain
//	server.xpath.cache.hit    /xpath queries served by a cached compiled program
//	server.xpath.cache.miss   /xpath queries that compiled a fresh program
//	server.xpath.cache.evict  compiled programs evicted from the LRU
//	server.xpath.rewrite.hit  /xpath queries answered from maintained views
//	server.xpath.rewrite.miss /xpath queries that fell back to the tree
//	                          walk (not pattern-expressible, or no view plan)
//	server.xpath.rewrite.stitch
//	                          rewrite hits served by a two-view stitch plan
//	server.xpath.rewrite.intersect
//	                          rewrite hits served by a k-view intersection
//	server.xpath.rewrite.cache_hit
//	                          /xpath queries served from the delta-
//	                          invalidated result cache
//	server.xpath.rewrite.cache_invalidate
//	                          cached results dropped because an applied
//	                          statement may affect their pattern
//	snapshot.epochs           epochs published
//	snapshot.rows             cumulative view rows in published epochs
//	snapshot.views.reused     cumulative views whose rows an epoch took over
//	                          from its predecessor because they had not moved
//	snapshot.doc.nodes        cumulative document nodes in published epochs
//	snapshot.doc.copied_nodes cumulative document nodes allocated for an
//	                          epoch (path-copied spines and insertions; the
//	                          whole document for a first epoch) rather than
//	                          shared with its predecessor
//	repl.leader.streams       /repl/stream requests served with frames
//	repl.leader.frame_bytes   raw frame bytes shipped to followers
//	repl.leader.snapshots     /repl/snapshot checkpoint images shipped
//	repl.leader.snapshot_required
//	                          stream requests answered 410 (LSN truncated)
//
// Histograms: server.apply.latency (engine apply time per statement or
// batch), server.batch.latency (engine apply time per translated batch),
// snapshot.publish (capture+swap time per epoch), server.query.latency and
// server.xpath.latency (read-path handler time).
//
// Multi-tenant serving aggregates every shard into the counters above and
// additionally keys a small per-tenant set (see tenantMetrics) as
// server.tenant.<name>.*, so one hot tenant is visible by name.
type serverMetrics struct {
	reg *obs.Metrics

	httpRequests      *obs.Counter
	enqueued          *obs.Counter
	applied           *obs.Counter
	applyErrors       *obs.Counter
	abandoned         *obs.Counter
	abandonedApplied  *obs.Counter
	applyPanics       *obs.Counter
	batches           *obs.Counter
	batchedStatements *obs.Counter
	batchFallbacks    *obs.Counter
	rejectedFull      *obs.Counter
	rejectedShutdown  *obs.Counter
	syncErrors        *obs.Counter
	xpathCacheHits    *obs.Counter
	xpathCacheMisses  *obs.Counter
	xpathCacheEvicts  *obs.Counter
	rewriteHits       *obs.Counter
	rewriteMisses     *obs.Counter
	rewriteStitch     *obs.Counter
	rewriteIntersect  *obs.Counter
	rewriteCacheHits  *obs.Counter
	rewriteCacheInval *obs.Counter
	epochs            *obs.Counter
	epochRows         *obs.Counter
	epochViewsReused  *obs.Counter
	epochDocNodes     *obs.Counter
	epochDocCopied    *obs.Counter
	replStreams       *obs.Counter
	replFrameBytes    *obs.Counter
	replSnapshots     *obs.Counter
	replTruncatedHits *obs.Counter

	applyLatency   *obs.Histogram
	batchLatency   *obs.Histogram
	publishLatency *obs.Histogram
	queryLatency   *obs.Histogram
	xpathLatency   *obs.Histogram
}

func newServerMetrics(reg *obs.Metrics) *serverMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &serverMetrics{
		reg:               reg,
		httpRequests:      reg.Counter("server.http.requests"),
		enqueued:          reg.Counter("server.apply.enqueued"),
		applied:           reg.Counter("server.apply.count"),
		applyErrors:       reg.Counter("server.apply.errors"),
		abandoned:         reg.Counter("server.apply.abandoned"),
		abandonedApplied:  reg.Counter("server.abandoned_applied"),
		applyPanics:       reg.Counter("server.apply.panics"),
		batches:           reg.Counter("server.batch.count"),
		batchedStatements: reg.Counter("server.batch.statements"),
		batchFallbacks:    reg.Counter("server.batch.fallbacks"),
		rejectedFull:      reg.Counter("server.reject.queue_full"),
		rejectedShutdown:  reg.Counter("server.reject.shutdown"),
		syncErrors:        reg.Counter("server.sync.errors"),
		xpathCacheHits:    reg.Counter("server.xpath.cache.hit"),
		xpathCacheMisses:  reg.Counter("server.xpath.cache.miss"),
		xpathCacheEvicts:  reg.Counter("server.xpath.cache.evict"),
		rewriteHits:       reg.Counter("server.xpath.rewrite.hit"),
		rewriteMisses:     reg.Counter("server.xpath.rewrite.miss"),
		rewriteStitch:     reg.Counter("server.xpath.rewrite.stitch"),
		rewriteIntersect:  reg.Counter("server.xpath.rewrite.intersect"),
		rewriteCacheHits:  reg.Counter("server.xpath.rewrite.cache_hit"),
		rewriteCacheInval: reg.Counter("server.xpath.rewrite.cache_invalidate"),
		epochs:            reg.Counter("snapshot.epochs"),
		epochRows:         reg.Counter("snapshot.rows"),
		epochViewsReused:  reg.Counter("snapshot.views.reused"),
		epochDocNodes:     reg.Counter("snapshot.doc.nodes"),
		epochDocCopied:    reg.Counter("snapshot.doc.copied_nodes"),
		replStreams:       reg.Counter("repl.leader.streams"),
		replFrameBytes:    reg.Counter("repl.leader.frame_bytes"),
		replSnapshots:     reg.Counter("repl.leader.snapshots"),
		replTruncatedHits: reg.Counter("repl.leader.snapshot_required"),
		applyLatency:      reg.Histogram("server.apply.latency"),
		batchLatency:      reg.Histogram("server.batch.latency"),
		publishLatency:    reg.Histogram("snapshot.publish"),
		queryLatency:      reg.Histogram("server.query.latency"),
		xpathLatency:      reg.Histogram("server.xpath.latency"),
	}
}

// tenantMetrics is one tenant's slice of the registry:
//
//	server.tenant.<name>.applied   statements applied for this tenant
//	server.tenant.<name>.rejected  updates bounced off this tenant's full queue
//	server.tenant.<name>.epochs    epochs this tenant published
//
// The per-tenant reject counter is the starvation signal the queue-depth
// limits exist for: a hot tenant racks up rejects while its neighbors'
// applied counters keep advancing.
type tenantMetrics struct {
	applied  *obs.Counter
	rejected *obs.Counter
	epochs   *obs.Counter
}

func newTenantMetrics(reg *obs.Metrics, tenant string) *tenantMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	p := "server.tenant." + tenant + "."
	return &tenantMetrics{
		applied:  reg.Counter(p + "applied"),
		rejected: reg.Counter(p + "rejected"),
		epochs:   reg.Counter(p + "epochs"),
	}
}
