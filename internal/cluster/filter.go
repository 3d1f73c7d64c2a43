package cluster

import (
	"sync"

	"ssync/internal/hashkit"
	"ssync/internal/store"
)

// forwardWindow is the in-flight window of each node-to-node
// forwarding connection.
const forwardWindow = 16

// nodeFilter is one node's store.Router: the per-op decision point that
// keeps the single-owner discipline across a resize. Every point op the
// node's server receives passes through here; the filter checks the
// shared ring and either executes locally (recording writes that land
// in a migrating arc) or forwards the op to the node that owns the key
// now. Forwarding is what lets clients keep operating on a stale ring:
// an op routed to an ex-owner takes one extra hop instead of failing.
type nodeFilter struct {
	c *Cluster
	n *node

	// mu is the migration filter lock. Every locally executing op holds
	// it shared; a migration's commit step holds it exclusively. Taking
	// the write lock therefore drains every in-flight local execution,
	// and because the ring is loaded under this lock, no op can execute
	// here under the old ring after the commit flips it — the property
	// the linearizability-across-migration test leans on.
	mu  sync.RWMutex
	mig *migTracker // non-nil while this node is a migration source

	connMu sync.Mutex
	conns  map[int]*store.AsyncClient // forwarding mesh, dialed lazily
}

func newNodeFilter(c *Cluster, n *node) *nodeFilter {
	return &nodeFilter{c: c, n: n, conns: map[int]*store.AsyncClient{}}
}

// migTracker records keys written in a migrating range while the bulk
// copy streams underneath — the dirty set whose re-ship at commit turns
// the copy's point-in-time snapshot into an exact one. Writes outside
// the moving arcs are not tracked; they are not moving.
type migTracker struct {
	arcs  []store.Arc
	mu    sync.Mutex // recorders run concurrently under the filter's RLock
	dirty map[string]struct{}
}

// tracks reports whether a write op on a key with FNV-1a hash hash
// lands in a moving arc. Callers test it before record, so a key is
// copied into the dirty set only when it must be.
func (t *migTracker) tracks(op byte, hash uint64) bool {
	return (op == store.OpPut || op == store.OpDelete) && store.ArcsContain(t.arcs, hashkit.Mix64(hash))
}

func (t *migTracker) record(key string) {
	t.mu.Lock()
	t.dirty[key] = struct{}{}
	t.mu.Unlock()
}

// Route implements store.Router for one point op.
func (f *nodeFilter) Route(h *store.Handle, req store.Request, hops int) store.Response {
	hash := hashkit.FNV1a(req.Key)
	f.mu.RLock()
	// The ring must be loaded under the lock: the commit step flips it
	// while holding mu exclusively, so an op that sees the old ring has
	// executed (and been dirty-tracked) before the flip, and an op that
	// sees the new one executes after the delta shipped.
	owner := f.c.ring.Load().OwnerHash(hash)
	if owner == f.n.id {
		resp := h.Exec(req)
		if f.mig != nil && f.mig.tracks(req.Op, hash) {
			f.mig.record(req.Key)
		}
		f.mu.RUnlock()
		return resp
	}
	f.mu.RUnlock()
	// Never forward while holding mu: a commit locking several source
	// filters would deadlock against ops forwarding between them. The
	// owner was decided under the lock; if the ring flips before the
	// forward lands, the receiving filter re-checks and takes one more
	// hop — bounded by the cap below, since there is at most one
	// migration in flight.
	if hops >= store.MaxForwardHops {
		return store.Response{Status: store.StatusError, Msg: store.ErrHopLimit.Error()}
	}
	return f.forward(owner, req, hops+1)
}

// RouteBatch implements store.Router for a batch's sub-ops. Each key is
// hashed once, and that hash both finds the owner (Ring.OwnerHash) and,
// passed on to Handle.ExecViews, picks the shard. When every point op is
// owned here — the usual case outside a resize — the whole batch
// executes as one engine visit per touched shard under the filter lock,
// straight from the frame-aliasing views, allocating nothing. Otherwise
// the local subset executes the same way and the rest forward
// individually (submitted together, awaited together) after the lock is
// released. Owning strings are made only where a key must outlive the
// frame: a forwarded op, or a write recorded in a migration's dirty set.
func (f *nodeFilter) RouteBatch(h *store.Handle, reqs []store.RequestView, hashes []uint64) []store.Response {
	f.mu.RLock()
	ring := f.c.ring.Load()
	allLocal := true
	for i, r := range reqs {
		if isPointOp(r.Op) {
			hashes[i] = hashkit.FNV1aBytes(r.Key)
			if ring.OwnerHash(hashes[i]) != f.n.id {
				allLocal = false
			}
		}
	}
	if allLocal {
		resps := h.ExecViews(reqs, hashes)
		f.recordDirty(reqs, hashes)
		f.mu.RUnlock()
		return resps
	}
	// Slow path: scans (which always read the local store) and anything
	// that is not a point op stay local; ExecViews answers a bad op.
	owners := make([]int, len(reqs))
	var local, remote []int
	for i, r := range reqs {
		if isPointOp(r.Op) {
			if owners[i] = ring.OwnerHash(hashes[i]); owners[i] != f.n.id {
				remote = append(remote, i)
				continue
			}
		}
		local = append(local, i)
	}
	resps := make([]store.Response, len(reqs))
	if len(local) > 0 {
		sub := make([]store.RequestView, len(local))
		subHashes := make([]uint64, len(local))
		for j, i := range local {
			sub[j], subHashes[j] = reqs[i], hashes[i]
		}
		for j, resp := range h.ExecViews(sub, subHashes) {
			resps[local[j]] = resp
		}
		f.recordDirty(sub, subHashes)
	}
	f.mu.RUnlock()
	futs := make([]*store.Future, len(remote))
	for j, i := range remote {
		futs[j] = f.meshConn(owners[i]).ForwardAsync(reqs[i].Owned(), 1)
	}
	for j, i := range remote {
		resp, err := futs[j].Wait()
		if err != nil {
			resp = store.Response{Status: store.StatusError, Msg: err.Error()}
		}
		resps[i] = resp
	}
	return resps
}

// recordDirty adds the locally executed writes among reqs that land in
// a moving arc to the migration's dirty set (nothing when no migration
// runs here). f.mu must be held.
func (f *nodeFilter) recordDirty(reqs []store.RequestView, hashes []uint64) {
	if f.mig == nil {
		return
	}
	for i, r := range reqs {
		if f.mig.tracks(r.Op, hashes[i]) {
			f.mig.record(string(r.Key))
		}
	}
}

// isPointOp reports whether op is a get, put or delete — the ops that
// have one owner.
func isPointOp(op byte) bool {
	return op == store.OpGet || op == store.OpPut || op == store.OpDelete
}

// forward ships req to node to and blocks for the response.
func (f *nodeFilter) forward(to int, req store.Request, hops int) store.Response {
	resp, err := f.meshConn(to).ForwardAsync(req, hops).Wait()
	if err != nil {
		return store.Response{Status: store.StatusError, Msg: err.Error()}
	}
	return resp
}

// meshConn returns (dialing on first use) the forwarding connection to
// node to. The mesh is lazy because most pairs never forward: only a
// resize window and post-resize stale clients create traffic here.
func (f *nodeFilter) meshConn(to int) *store.AsyncClient {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if conn := f.conns[to]; conn != nil {
		return conn
	}
	conn := f.c.node(to).server.PipeAsyncClient(forwardWindow)
	f.conns[to] = conn
	return conn
}

// closeConns closes the forwarding mesh (cluster shutdown).
func (f *nodeFilter) closeConns() {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	for to, conn := range f.conns {
		_ = conn.Close()
		delete(f.conns, to)
	}
}

var _ store.Router = (*nodeFilter)(nil)
