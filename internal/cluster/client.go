package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ssync/internal/store"
	"ssync/internal/workload"
)

// topology is one immutable routing view: a ring and the connections to
// its members, indexed by node id (nil where the id is not a member).
// A resize installs a new topology; every operation loads the pointer
// exactly once, so a single op never mixes two views.
type topology struct {
	ring  *Ring
	conns []*store.AsyncClient
}

// Client is the routing client of a cluster: one multiplexed
// store.AsyncClient per member, with every key routed to its ring
// owner. Point ops go to exactly one node; scans and the batch surfaces
// split per node, dispatch the per-node sub-batches concurrently
// through each connection's in-flight window, and reassemble the
// responses in the caller's order. Like every other connection kind in
// the repository, a Client is driven by one goroutine at a time (the
// per-node windows below it do the overlapping).
//
// A Client obtained from Cluster.Dial follows resizes: when a migration
// commits, the cluster swings the client onto the new ring. Ops in
// flight under the old view still land — the ex-owner's filter forwards
// them — so a resize costs stale ops one extra hop, never an error.
//
// Client implements store.BatchConn, so it drops into every call site a
// store connection fits — including workload scenarios via store.Driver,
// where its Issue implementation (store.Issuer) keeps routed op groups
// truly pipelined instead of blocking at issue time.
type Client struct {
	cluster *Cluster // nil for a hand-built NewClient
	window  int
	topo    atomic.Pointer[topology]
}

// NewClient wraps async connections over a fixed ring: conns is indexed
// by node id and must cover every member. Clients built this way do not
// follow resizes; Cluster.Dial is the elastic path.
func NewClient(ring *Ring, conns []*store.AsyncClient) (*Client, error) {
	if len(conns) < ring.MaxID()+1 {
		return nil, fmt.Errorf("cluster: %d connections for a ring with max node id %d", len(conns), ring.MaxID())
	}
	for _, id := range ring.Members() {
		if conns[id] == nil {
			return nil, fmt.Errorf("cluster: no connection for member %d", id)
		}
	}
	c := &Client{}
	c.topo.Store(&topology{ring: ring, conns: conns})
	return c, nil
}

// Ring returns the client's current routing ring.
func (c *Client) Ring() *Ring { return c.topo.Load().ring }

// Nodes returns the current member count.
func (c *Client) Nodes() int { return c.topo.Load().ring.Nodes() }

// Node returns the async connection to node i (nil for a non-member the
// client never dialed).
func (c *Client) Node(i int) *store.AsyncClient { return c.topo.Load().conns[i] }

// Owner returns the node that owns key in the client's current view.
func (c *Client) Owner(key string) int { return c.topo.Load().ring.Owner(key) }

// Close closes every node connection; every error is reported joined.
func (c *Client) Close() error {
	if c.cluster != nil {
		// Deregister first: after forget returns no resize will install
		// fresh connections on this client.
		c.cluster.forget(c)
	}
	var errs []error
	for _, conn := range c.topo.Load().conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// GetAsync submits a routed get to the key's owner.
func (c *Client) GetAsync(key string) *store.Future {
	t := c.topo.Load()
	return t.conns[t.ring.Owner(key)].GetAsync(key)
}

// PutAsync submits a routed put to the key's owner.
func (c *Client) PutAsync(key string, value []byte) *store.Future {
	t := c.topo.Load()
	return t.conns[t.ring.Owner(key)].PutAsync(key, value)
}

// DeleteAsync submits a routed delete to the key's owner.
func (c *Client) DeleteAsync(key string) *store.Future {
	t := c.topo.Load()
	return t.conns[t.ring.Owner(key)].DeleteAsync(key)
}

// Get fetches the value under key from its owner.
func (c *Client) Get(key string) ([]byte, bool, error) {
	t := c.topo.Load()
	return t.conns[t.ring.Owner(key)].Get(key)
}

// Put stores value under key on its owner; it reports whether the key
// was newly inserted.
func (c *Client) Put(key string, value []byte) (bool, error) {
	t := c.topo.Load()
	return t.conns[t.ring.Owner(key)].Put(key, value)
}

// Delete removes key from its owner; it reports whether the key was
// present.
func (c *Client) Delete(key string) (bool, error) {
	t := c.topo.Load()
	return t.conns[t.ring.Owner(key)].Delete(key)
}

// Scan fans the prefix scan out to every member concurrently, merges
// the per-node results (each already sorted) and trims to limit — the
// same union-of-snapshots contract a single store's cross-shard scan
// has, one level up. It is the one-request case of ExecBatch's scan
// path.
func (c *Client) Scan(prefix string, limit int) ([]store.Entry, error) {
	if limit < 0 {
		limit = 0
	}
	resps, err := c.ExecBatch([]store.Request{{Op: store.OpScan, Key: prefix, Limit: uint32(limit)}})
	if err != nil {
		return nil, err
	}
	return resps[0].Entries, nil
}

// routeScratch is one pooled owner-bucketing table. Routed batches run
// at pipeline depth on the hot path, so the per-call [][]int (and the
// regrown index slices inside it) are worth recycling. Ownership rule:
// the table (and every idxs slice handed out of it) is valid until
// release, which a caller may only invoke after its last use of any
// group — in practice a defer covering the whole routed call, since
// response scatter reads the groups last.
type routeScratch struct{ groups [][]int }

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

// getGroups returns a cleared owner-bucketing table with n node slots.
//
//ssync:pooled
func getGroups(n int) *routeScratch {
	s := routePool.Get().(*routeScratch)
	if cap(s.groups) < n {
		s.groups = make([][]int, n)
	}
	s.groups = s.groups[:n]
	for i := range s.groups {
		s.groups[i] = s.groups[i][:0]
	}
	return s
}

func (s *routeScratch) release() { routePool.Put(s) }

// routeGroups buckets request indices by owner node into groups
// (len(t.conns) slots); scans (which have no single owner) are returned
// separately.
func (t *topology) routeGroups(reqs []store.Request, resps []store.Response, groups [][]int) (scans []int) {
	for i, r := range reqs {
		switch r.Op {
		case store.OpGet, store.OpPut, store.OpDelete:
			n := t.ring.Owner(r.Key)
			groups[n] = append(groups[n], i)
		case store.OpScan:
			scans = append(scans, i)
		default:
			if resps != nil {
				resps[i] = store.Response{Status: store.StatusError, Msg: store.ErrBadOp.Error()}
			}
		}
	}
	return scans
}

// subRequests gathers the requests at idxs, in order.
func subRequests(reqs []store.Request, idxs []int) []store.Request {
	sub := make([]store.Request, len(idxs))
	for j, i := range idxs {
		sub[j] = reqs[i]
	}
	return sub
}

// splitByOwner buckets item indices 0..n-1 into groups by the ring
// owner of key(i) — the one routing loop MGet and MPut share.
func (t *topology) splitByOwner(groups [][]int, n int, key func(i int) string) {
	for i := 0; i < n; i++ {
		owner := t.ring.Owner(key(i))
		groups[owner] = append(groups[owner], i)
	}
}

// mergeScan merges per-node scan results into one sorted, limit-trimmed
// slice, deduplicating keys: during a resize's copy window a key can
// transiently exist on both the old and the new owner, and the copy on
// the node this topology's ring calls the owner wins.
func (t *topology) mergeScan(nodes []int, perNode [][]store.Entry, limit int) []store.Entry {
	var entries []store.Entry
	seen := map[string]int{} // key -> index in entries
	for j, part := range perNode {
		for _, e := range part {
			if at, dup := seen[e.Key]; dup {
				if t.ring.Owner(e.Key) == nodes[j] {
					entries[at] = e
				}
				continue
			}
			seen[e.Key] = len(entries)
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	return entries
}

// ExecBatch splits the batch per owner node, ships each node's sub-batch
// as one frame, dispatches all of them before waiting on any (they
// overlap through the per-node windows), and scatters the sub-responses
// back so resps[i] answers reqs[i]. Scans inside a batch fan out to
// every member like Scan. Per-node sub-batches inherit the single-frame
// contract of Client.ExecBatch.
func (c *Client) ExecBatch(reqs []store.Request) ([]store.Response, error) {
	t := c.topo.Load()
	resps := make([]store.Response, len(reqs))
	rs := getGroups(len(t.conns))
	// parts.idxs alias the pooled groups; the deferred release runs only
	// after the response scatter below has read them all.
	defer rs.release()
	scans := t.routeGroups(reqs, resps, rs.groups)
	type part struct {
		idxs []int
		fut  *store.Future
	}
	var parts []part
	for n, idxs := range rs.groups {
		if len(idxs) == 0 {
			continue
		}
		parts = append(parts, part{idxs: idxs, fut: t.conns[n].BatchAsync(subRequests(reqs, idxs))})
	}
	var members []int
	if len(scans) > 0 {
		members = t.ring.Members()
	}
	type scanPart struct {
		idx  int
		futs []*store.Future
	}
	scanParts := make([]scanPart, 0, len(scans))
	for _, i := range scans {
		sp := scanPart{idx: i, futs: make([]*store.Future, len(members))}
		for j, n := range members {
			sp.futs[j] = t.conns[n].ScanAsync(reqs[i].Key, int(reqs[i].Limit))
		}
		scanParts = append(scanParts, sp)
	}
	var firstErr error
	for _, p := range parts {
		sub, err := p.fut.WaitBatch()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for j, i := range p.idxs {
			resps[i] = sub[j]
		}
	}
	for _, sp := range scanParts {
		perNode := make([][]store.Entry, len(members))
		scanErr := error(nil)
		for j, f := range sp.futs {
			resp, err := f.Wait()
			if err != nil {
				scanErr = err
				break
			}
			perNode[j] = resp.Entries
		}
		if scanErr != nil {
			if firstErr == nil {
				firstErr = scanErr
			}
			continue
		}
		entries := t.mergeScan(members, perNode, int(reqs[sp.idx].Limit))
		resps[sp.idx] = store.Response{Status: store.StatusOK, Entries: entries}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return resps, nil
}

// MGet splits the keys per owner node and fetches the per-node groups
// concurrently (each node's blocking MGet pipelines its own chunks);
// values[i] is nil when keys[i] is absent.
func (c *Client) MGet(keys []string) ([][]byte, error) {
	t := c.topo.Load()
	vals := make([][]byte, len(keys))
	rs := getGroups(len(t.conns))
	defer rs.release() // the goroutines' idxs are dead after wg.Wait
	t.splitByOwner(rs.groups, len(keys), func(i int) string { return keys[i] })
	errs := make([]error, len(t.conns))
	var wg sync.WaitGroup
	for n, idxs := range rs.groups {
		if len(idxs) == 0 {
			continue
		}
		n, idxs := n, idxs
		sub := make([]string, len(idxs))
		for j, i := range idxs {
			sub[j] = keys[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs, err := t.conns[n].MGet(sub)
			if err != nil {
				errs[n] = err
				return
			}
			for j, i := range idxs {
				vals[i] = vs[j]
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return vals, nil
}

// MPut splits the entries per owner node and stores the per-node groups
// concurrently; it reports how many keys were newly inserted.
func (c *Client) MPut(entries []store.Entry) (int, error) {
	t := c.topo.Load()
	rs := getGroups(len(t.conns))
	defer rs.release() // the goroutines' idxs are dead after wg.Wait
	t.splitByOwner(rs.groups, len(entries), func(i int) string { return entries[i].Key })
	created := make([]int, len(t.conns))
	errs := make([]error, len(t.conns))
	var wg sync.WaitGroup
	for n, idxs := range rs.groups {
		if len(idxs) == 0 {
			continue
		}
		n, idxs := n, idxs
		sub := make([]store.Entry, len(idxs))
		for j, i := range idxs {
			sub[j] = entries[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			created[n], errs[n] = t.conns[n].MPut(sub)
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range created {
		total += n
	}
	return total, errors.Join(errs...)
}

var (
	_ store.BatchConn = (*Client)(nil)
	_ store.Issuer    = (*Client)(nil)
)

// Issue starts one op group without waiting for its results: the group
// is split per owner node, every per-node sub-batch (and per-scan
// fan-out) is submitted through the async windows immediately, and the
// returned Pending reassembles the outcome at Wait. A scenario driving
// a cluster conn with pipeline depth d therefore keeps up to d routed
// groups in flight — the same overlap the single-node async client
// gives, across nodes.
//
// A routed group's pending is recycled at Wait, which the
// workload.Pending contract calls exactly once: its request scratch and
// its per-node recyclable futures (store.AsyncClient.BatchReuse) serve
// the next group, so steady-state Issue/Wait allocates nothing.
func (c *Client) Issue(ops []workload.Op) workload.Pending {
	t := c.topo.Load()
	if len(ops) == 1 && ops[0].Kind != workload.KindScan {
		return &routedScalarPending{op: ops[0], fut: submitRouted(t, ops[0])}
	}
	p := getPending()
	p.t = t
	p.reqs = store.AppendRequests(p.reqs[:0], ops)
	rs := getGroups(len(t.conns))
	// Safe to release at return: the parts index p.sub, which the
	// requests are copied into, and hold no index slice.
	defer rs.release()
	scans := t.routeGroups(p.reqs, nil, rs.groups)
	p.sub, p.parts = p.sub[:0], p.parts[:0]
	for len(p.futs) < len(t.conns) {
		p.futs = append(p.futs, nil)
	}
	for n, idxs := range rs.groups {
		if len(idxs) == 0 {
			continue
		}
		lo := len(p.sub)
		for _, i := range idxs {
			p.sub = append(p.sub, p.reqs[i])
		}
		p.futs[n] = t.conns[n].BatchReuse(p.futs[n], p.sub[lo:])
		p.parts = append(p.parts, routedPart{node: n, lo: lo, hi: len(p.sub)})
	}
	if len(scans) > 0 {
		members := t.ring.Members()
		for _, i := range scans {
			sp := routedScan{limit: int(p.reqs[i].Limit), futs: make([]*store.Future, len(members))}
			for j, n := range members {
				sp.futs[j] = t.conns[n].ScanAsync(p.reqs[i].Key, sp.limit)
			}
			p.scans = append(p.scans, sp)
		}
	}
	//ssync:ignore poolaudit the caller owns the pending until its Wait, the single release point
	return p
}

// submitRouted routes one point op to its owner's async surface within
// a single topology view.
func submitRouted(t *topology, op workload.Op) *store.Future {
	conn := t.conns[t.ring.Owner(op.Key)]
	switch op.Kind {
	case workload.KindGet:
		return conn.GetAsync(op.Key)
	case workload.KindPut:
		return conn.PutAsync(op.Key, op.Value)
	default:
		return conn.DeleteAsync(op.Key)
	}
}

// routedScalarPending resolves a pipelined routed point op.
type routedScalarPending struct {
	op  workload.Op
	fut *store.Future
}

func (p *routedScalarPending) Wait() (workload.Outcome, error) {
	resp, err := p.fut.Wait()
	if err != nil {
		return workload.Outcome{}, err
	}
	out := workload.Outcome{Ops: 1}
	switch p.op.Kind {
	case workload.KindGet:
		if resp.Status == store.StatusOK {
			out.Hits++
		} else {
			out.Misses++
		}
	case workload.KindPut:
		if resp.Created {
			out.Created++
		}
	}
	return out, nil
}

// routedPart is one node's share of an issued op group: the requests
// sub[lo:hi] of its pending.
type routedPart struct {
	node, lo, hi int
}

// routedScan is one scan op's all-member fan-out.
type routedScan struct {
	limit int
	futs  []*store.Future
}

// routedPending reassembles an issued group: per-node batch outcomes
// plus merged scan counts. It pins the topology the group was issued
// under, so outcomes resolve against the connections the ops actually
// went to even if a resize lands mid-flight.
type routedPending struct {
	t     *topology
	reqs  []store.Request // the group as wire requests
	sub   []store.Request // reqs regrouped by owner; parts index it
	parts []routedPart
	futs  []*store.Future // recyclable futures by node id (BatchReuse)
	scans []routedScan
}

// pendingPool recycles routed pendings, their request scratch and their
// per-node futures.
var pendingPool = sync.Pool{New: func() any { return new(routedPending) }}

// getPending returns a recycled pending. Ownership rule: the pending,
// with every future in futs, belongs to one issued group from
// getPending until its Wait, which releases it after every future it
// submitted has resolved; at that point neither async-client loop can
// reach any of them, and no one else may touch the pending again.
//
//ssync:pooled
func getPending() *routedPending { return pendingPool.Get().(*routedPending) }

// release clears the pending's references to the caller's keys, values
// and topology, and recycles it.
//
//ssync:pooled release
func (p *routedPending) release() {
	clear(p.reqs)
	clear(p.sub)
	clear(p.scans)
	p.t, p.scans = nil, p.scans[:0]
	pendingPool.Put(p)
}

// Wait resolves the group and recycles the pending (and with it every
// per-node future) on return: the caller must not touch p again.
//
//ssync:pooled release
func (p *routedPending) Wait() (workload.Outcome, error) {
	defer p.release()
	var total workload.Outcome
	var firstErr error
	for _, part := range p.parts {
		resps, err := p.futs[part.node].WaitBatch()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out, err := store.BatchOutcome(p.t.conns[part.node], p.sub[part.lo:part.hi], resps)
		total.Add(out)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, sp := range p.scans {
		count := 0
		scanErr := error(nil)
		for _, f := range sp.futs {
			resp, err := f.Wait()
			if err != nil {
				scanErr = err
				break
			}
			count += len(resp.Entries)
		}
		if scanErr != nil {
			if firstErr == nil {
				firstErr = scanErr
			}
			continue
		}
		// The merged-and-trimmed entry count, without materializing the
		// merge: min(sum, limit) is what Scan would return (a resize's
		// copy window can transiently double-count a moving key here —
		// a stats path, not a correctness one).
		if sp.limit > 0 && count > sp.limit {
			count = sp.limit
		}
		total.Ops++
		total.Scanned += uint64(count)
	}
	return total, firstErr
}
