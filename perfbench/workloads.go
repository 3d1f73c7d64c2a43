package main

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/stats"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// Every workload runs the default locked engine with the TICKET lock
// over nKeys preloaded keys, and is closed-loop: each load goroutine
// issues its next request only when the previous one has returned.
const nKeys = 100_000

// bench is one built workload.
type bench interface {
	// run measures the workload with tracing off for sec seconds.
	run(sec int) summary
	// traced measures the same shape with its layers traced and writes
	// the per-layer figures it produces into m.
	traced(sec int, m metricSet) summary
	// sweep reads every key back and checks where it lives.
	sweep(t *tally)
	// fillIn runs the short probes of the stack layers the workload's
	// own shape does not reach (see ladder.go), fed with its op stream,
	// and checks their results into t.
	fillIn(m metricSet, t *tally)
	// ops is the workload's op stream, for the ladder's replays.
	ops() *stream
	close()
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// built is a workload together with its set-up figures.
type built struct {
	b        bench
	ks       *keyspace
	setup    time.Duration
	spaceAmp float64
}

// build generates the inputs, then builds the named workload's system
// from them setupReps times, closing every build but the last. Only
// building the system (the store or cluster, its preload, its
// connections) is timed; setup is the median build. The heap the last
// build grew, over the key and value bytes it holds, is the space
// amplification.
func build(name string, seed uint64) (built, error) {
	ks := newKeyspace(nKeys)
	uni, z := uniform{n: nKeys}, newZipf(nKeys, 0.99)
	var system func() bench
	switch name {
	case "point-lockstep":
		ss := []*stream{newStream(seed, 0, uni, 10, streamLen), newStream(seed, 1, uni, 10, streamLen)}
		system = func() bench { return newPointLockstep(ks, ss, nil) }
	case "routed-batch":
		g := newGroups(ks, newStream(seed, 0, z, 5, streamLen))
		system = func() bench { return newRoutedBatch(ks, g) }
	case "direct-hot":
		ss := []*stream{newStream(seed, 0, z, 50, streamLen), newStream(seed, 1, z, 50, streamLen)}
		system = func() bench { return newDirectHot(ks, ss) }
	default:
		return built{}, fmt.Errorf("unknown workload %q", name)
	}
	w := built{ks: ks}
	setups := make([]float64, setupReps)
	for i := range setups {
		if w.b != nil {
			w.b.close()
			w.b = nil
		}
		h0 := liveHeap()
		t0 := time.Now()
		w.b = system()
		setups[i] = float64(time.Since(t0))
		w.spaceAmp = float64(liveHeap()-h0) / float64(ks.userBytes())
	}
	w.setup = time.Duration(stats.Median(setups))
	return w, nil
}

// preload stores every key's payload through put. Keys are cloned so
// the store owns its key bytes, as it does for keys that arrive over
// the wire.
func preload(ks *keyspace, put func(k int, key string, v []byte)) {
	for k, key := range ks.keys {
		put(k, strings.Clone(key), ks.vals[k])
	}
}

// kv is the lock-step surface of store.Client and cluster.Client.
type kv interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, value []byte) (bool, error)
}

// kvExec performs and checks one op through c.
func kvExec(ks *keyspace, c kv, t *tally) func(o op) {
	return func(o op) {
		k := o.key()
		if o.isPut() {
			created, err := c.Put(ks.keys[k], ks.vals[k])
			t.checkPut(ks, k, created, err)
			return
		}
		v, ok, err := c.Get(ks.keys[k])
		t.checkGet(ks, k, v, ok, err)
	}
}

// ---- point-lockstep -------------------------------------------------

// pointLockstep: a bare store.Server (no router), 16 shards, and two
// lock-step store.Clients, one goroutine each, over net.Pipe.
type pointLockstep struct {
	ks      *keyspace
	st      *store.Store
	sv      *store.Server
	streams []*stream
	pp      pipes
	clients []*store.Client
}

// newPointLockstep builds the workload; wrap, when non-nil, wraps each
// client's end of its pipe (the sensitivity test injects faults there).
func newPointLockstep(ks *keyspace, streams []*stream, wrap func(net.Conn) net.Conn) *pointLockstep {
	b := &pointLockstep{ks: ks, st: store.New(store.Options{Shards: 16}), streams: streams}
	h := b.st.NewHandle(0)
	preload(ks, func(_ int, key string, v []byte) { h.Put(key, v) })
	b.sv = store.NewServer(b.st, 1)
	for range streams {
		conn := b.pp.dial(b.sv, nil, nil)
		if wrap != nil {
			conn = wrap(conn)
		}
		b.clients = append(b.clients, store.NewClient(conn))
	}
	return b
}

func (b *pointLockstep) run(sec int) summary {
	nwin := warmWindows + 2*sec + 1
	var c clock
	var stats []*loadStats
	var loaders []func(*atomic.Bool)
	for i, cl := range b.clients {
		st, s := newLoadStats(nwin), b.streams[i]
		exec := kvExec(b.ks, cl, &st.tally)
		stats = append(stats, st)
		loaders = append(loaders, func(stop *atomic.Bool) { closedLoop(&c, s, st, timeWindows(nwin), stop, 1, exec, nil) })
	}
	return runPhase(&c, time.Duration(sec)*time.Second, stats, loaders).summarize()
}

func (b *pointLockstep) traced(sec int, m metricSet) summary {
	sum, sp, links := lockstepTraced(b.ks, b.sv, b.streams, sec)
	sp.wireMetrics(m, links)
	return sum
}

func (b *pointLockstep) sweep(t *tally) { sweep(b.ks, b.clients[0].Get, t) }

func (b *pointLockstep) fillIn(m metricSet, t *tally) {
	routedFillIn(b.ks, b.streams[0], m)
	migrateFillIn(b.ks, b.streams[0], m, t)
}

func (b *pointLockstep) ops() *stream { return b.streams[0] }

func (b *pointLockstep) close() {
	for _, c := range b.clients {
		c.Close()
	}
	b.pp.wait()
}

// lockstepTraced runs one lock-step client per stream over a tapped pipe
// to sv, for sec seconds after warm-up, and returns the phase summary
// with the wire spans of the measured windows.
func lockstepTraced(ks *keyspace, sv *store.Server, streams []*stream, sec int) (summary, *spans, []*link) {
	nwin := warmWindows + 2*sec + 1
	var c clock
	var pp pipes
	var stats []*loadStats
	var loaders []func(*atomic.Bool)
	var links []*link
	sps := make([]spans, len(streams))
	clients := make([]*store.Client, len(streams))
	for i, s := range streams {
		l := new(link)
		links = append(links, l)
		clients[i] = store.NewClient(pp.dial(sv, l, &c))
		st, sp := newLoadStats(nwin), &sps[i]
		exec := kvExec(ks, clients[i], &st.tally)
		stats = append(stats, st)
		after := func(k uint64, t0, t1 int64, w int) {
			if w >= warmWindows && w < nwin-1 {
				sp.exchange(l, k, t0, t1)
			}
		}
		s := s
		loaders = append(loaders, func(stop *atomic.Bool) { closedLoop(&c, s, st, timeWindows(nwin), stop, 1, exec, after) })
	}
	sum := runPhase(&c, time.Duration(sec)*time.Second, stats, loaders).summarize()
	for _, cl := range clients {
		cl.Close()
	}
	pp.wait()
	for i := 1; i < len(sps); i++ {
		sps[0].merge(&sps[i])
	}
	return sum, &sps[0], links
}

// ---- routed-batch ---------------------------------------------------

const (
	routedNodes = 2
	groupOps    = 4
	inFlight    = 8
	groupCount  = 1 << 14 // prebuilt groups before the sequence repeats
)

// routedBatch: a cluster of routedNodes nodes with 8 shards each, driven
// by one cluster.Client from Dial(inFlight) — one goroutine, one
// connection per node — issuing 4-op groups with inFlight groups
// outstanding.
type routedBatch struct {
	ks     *keyspace
	cl     *cluster.Cluster
	client *cluster.Client
	g      *groups
	cursor int
}

// groups is routed-batch's prebuilt input: op groups ready for Issue.
type groups struct {
	ops  []workload.Op
	keys []int  // key index of every op
	gets []byte // gets per group
	puts []byte // puts per group
}

func newGroups(ks *keyspace, s *stream) *groups {
	g := &groups{
		ops:  make([]workload.Op, groupOps*groupCount),
		keys: make([]int, groupOps*groupCount),
		gets: make([]byte, groupCount),
		puts: make([]byte, groupCount),
	}
	for i := range g.ops {
		o := s.next()
		k := o.key()
		g.keys[i] = k
		if o.isPut() {
			g.ops[i] = workload.Op{Kind: workload.KindPut, Key: ks.keys[k], Value: ks.vals[k]}
			g.puts[i/groupOps]++
		} else {
			g.ops[i] = workload.Op{Kind: workload.KindGet, Key: ks.keys[k]}
			g.gets[i/groupOps]++
		}
	}
	return g
}

// stream rebuilds the op stream the groups were drawn from.
func (g *groups) stream() *stream {
	s := &stream{ops: make([]op, len(g.keys))}
	for i, k := range g.keys {
		s.ops[i] = mkop(k, g.ops[i].Kind == workload.KindPut)
	}
	return s
}

func newRoutedBatch(ks *keyspace, g *groups) *routedBatch {
	b := &routedBatch{
		ks: ks,
		cl: cluster.New(cluster.Options{Nodes: routedNodes, Store: store.Options{Shards: 8}}),
		g:  g,
	}
	ring := b.cl.Ring()
	handles := map[int]*store.Handle{}
	preload(ks, func(_ int, key string, v []byte) {
		o := ring.Owner(key)
		if handles[o] == nil {
			handles[o] = b.cl.Store(o).NewHandle(0)
		}
		handles[o].Put(key, v)
	})
	b.client = b.cl.Dial(inFlight)
	return b
}

// groupTrace collects the routed spans of a traced phase.
type groupTrace struct {
	links         []*link // by node id
	sent          []uint64
	issue, wait   hist
	parts, groups uint64
	spans
}

// slot is one outstanding group.
type slot struct {
	p          workload.Pending
	g          int
	t0, issued int64
	nodes      [routedNodes]int8 // nodes the group went to, -1 when unused
	frames     [routedNodes]uint64
}

// issueLoop drives client until stop, keeping inFlight groups in flight,
// and checks every group's outcome.
func (b *routedBatch) issueLoop(c *clock, client *cluster.Client, st *loadStats, nwin int, stop *atomic.Bool, tr *groupTrace) {
	var ring [inFlight]slot
	head, n := 0, 0
	winOf := timeWindows(nwin)
	complete := func(s *slot) {
		tw := c.now()
		out, err := s.p.Wait()
		t1 := c.now()
		w := winOf(t1)
		gets, puts := int(b.g.gets[s.g]), int(b.g.puts[s.g])
		// A bad group fails all its ops: fail counts one, the rest here.
		st.attempted += groupOps
		switch {
		case err != nil:
			st.failed += groupOps - 1
			st.fail("group %d: %v", s.g, err)
		case out.Ops != groupOps || out.Misses != 0 || out.Created != 0 || out.Hits != uint64(gets):
			st.failed += groupOps - 1
			st.fail("group %d: outcome %+v for %d gets, %d puts", s.g, out, gets, puts)
		}
		if gets > 0 {
			st.get[w].record(t1 - s.t0)
		}
		if puts > 0 {
			st.put[w].record(t1 - s.t0)
		}
		st.ops[w] += groupOps
		if tr != nil && w >= warmWindows && w < nwin-1 {
			tr.group(s, tw, t1)
		}
	}
	for !stop.Load() {
		if n == inFlight {
			complete(&ring[head])
			head = (head + 1) % inFlight
			n--
		}
		s := &ring[(head+n)%inFlight]
		s.g = b.cursor
		b.cursor = (b.cursor + 1) % groupCount
		ops := b.g.ops[groupOps*s.g : groupOps*(s.g+1)]
		if tr != nil {
			tr.plan(s, client, ops)
		}
		s.t0 = c.now()
		s.p = client.Issue(ops)
		s.issued = c.now()
		n++
	}
	for ; n > 0; n-- {
		complete(&ring[head])
		head = (head + 1) % inFlight
	}
}

// plan records which nodes group s goes to and which frame each part is
// on its link. Issue sends one sub-batch per owner node, in node order,
// and each link carries its frames in submission order.
func (tr *groupTrace) plan(s *slot, client *cluster.Client, ops []workload.Op) {
	var touched [routedNodes]bool
	for _, o := range ops {
		touched[client.Owner(o.Key)] = true
	}
	j := 0
	for n := range tr.links {
		if touched[n] {
			s.nodes[j] = int8(n)
			s.frames[j] = tr.sent[n]
			tr.sent[n]++
			j++
		}
	}
	for ; j < routedNodes; j++ {
		s.nodes[j] = -1
	}
}

// group records one completed group: the layer spans of its last part
// to arrive, which is the part the caller waited for.
func (tr *groupTrace) group(s *slot, waitStart, end int64) {
	tr.issue.record(s.issued - s.t0)
	tr.wait.record(end - waitStart)
	tr.groups++
	crit, last := 0, int64(-1)
	for j, n := range s.nodes {
		if n < 0 {
			continue
		}
		tr.parts++
		if cr := tr.links[n].cli.read[s.frames[j]&ringMask]; cr > last {
			crit, last = j, cr
		}
	}
	tr.exchange(tr.links[s.nodes[crit]], s.frames[crit], s.t0, end)
}

func (b *routedBatch) run(sec int) summary {
	nwin := warmWindows + 2*sec + 1
	var c clock
	st := newLoadStats(nwin)
	loader := func(stop *atomic.Bool) { b.issueLoop(&c, b.client, st, nwin, stop, nil) }
	return runPhase(&c, time.Duration(sec)*time.Second, []*loadStats{st}, []func(*atomic.Bool){loader}).summarize()
}

// traced drives a second routed client built by hand over tapped pipes:
// cluster.NewClient over store.NewAsyncClients, one per node.
func (b *routedBatch) traced(sec int, m metricSet) summary {
	sum, tr := b.tracedGroups(sec)
	tr.wireMetrics(m, tr.links)
	tr.clusterMetrics(m)
	return sum
}

func (b *routedBatch) tracedGroups(sec int) (summary, *groupTrace) {
	nwin := warmWindows + 2*sec + 1
	var c clock
	var pp pipes
	ring := b.cl.Ring()
	tr := &groupTrace{links: make([]*link, ring.MaxID()+1), sent: make([]uint64, ring.MaxID()+1)}
	conns := make([]*store.AsyncClient, ring.MaxID()+1)
	for _, id := range ring.Members() {
		tr.links[id] = new(link)
		conns[id] = store.NewAsyncClient(pp.dial(b.cl.Server(id), tr.links[id], &c), inFlight)
	}
	client, err := cluster.NewClient(ring, conns)
	if err != nil {
		panic(err) // the conns cover the ring by construction
	}
	st := newLoadStats(nwin)
	loader := func(stop *atomic.Bool) { b.issueLoop(&c, client, st, nwin, stop, tr) }
	sum := runPhase(&c, time.Duration(sec)*time.Second, []*loadStats{st}, []func(*atomic.Bool){loader}).summarize()
	client.Close()
	pp.wait()
	return sum, tr
}

func (tr *groupTrace) clusterMetrics(m metricSet) {
	m.set("cluster.issue_us", tr.issue.quantile(0.5)/1e3, "us")
	m.set("cluster.wait_p99_us", tr.wait.quantile(0.99)/1e3, "us")
	if tr.groups > 0 {
		m.set("cluster.nodes_per_group", float64(tr.parts)/float64(tr.groups), "nodes")
	}
}

// sweep reads every key back in groupOps-key get batches through
// cluster.Client.ExecBatch, which sends them over the same AsyncClient
// windows, batch codec and ParseBatchResponse as Issue, and checks each
// returned value. Issue's Pending reports counts only, so this is where
// the values that path returns are checked.
func (b *routedBatch) sweep(t *tally) {
	reqs := make([]store.Request, 0, groupOps)
	for k0 := 0; k0 < len(b.ks.keys); k0 += groupOps {
		reqs = reqs[:0]
		for k := k0; k < k0+groupOps && k < len(b.ks.keys); k++ {
			reqs = append(reqs, store.Request{Op: store.OpGet, Key: b.ks.keys[k]})
		}
		resps, err := b.client.ExecBatch(reqs)
		for i := range reqs {
			if err != nil {
				t.checkGet(b.ks, k0+i, nil, false, err)
				continue
			}
			t.checkGet(b.ks, k0+i, resps[i].Value, resps[i].Status == store.StatusOK, nil)
		}
	}
}

func (b *routedBatch) fillIn(m metricSet, t *tally) { migrateFillIn(b.ks, b.ops(), m, t) }

func (b *routedBatch) ops() *stream { return b.g.stream() }

func (b *routedBatch) close() {
	b.client.Close()
	b.cl.Close()
}

// ---- direct-hot -----------------------------------------------------

// directSample: one op in directSample is timed on direct-hot, where an
// op is a few hundred ns and two clock reads per op would cost a
// visible share of it.
const directSample = 8

// directHot: no wire. Two goroutines, each with its own store.Handle, on
// one 4-shard store.
type directHot struct {
	ks      *keyspace
	st      *store.Store
	streams []*stream
	handles []*store.Handle
}

func newDirectHot(ks *keyspace, streams []*stream) *directHot {
	b := &directHot{ks: ks, st: store.New(store.Options{Shards: 4}), streams: streams}
	h := b.st.NewHandle(0)
	preload(ks, func(_ int, key string, v []byte) { h.Put(key, v) })
	for range streams {
		b.handles = append(b.handles, b.st.NewHandle(0))
	}
	return b
}

func (b *directHot) loadPhase(sec, sample int) summary {
	nwin := warmWindows + 2*sec + 1
	var c clock
	var stats []*loadStats
	var loaders []func(*atomic.Bool)
	for i, h := range b.handles {
		st, s, h := newLoadStats(nwin), b.streams[i], h
		exec := func(o op) {
			k := o.key()
			if o.isPut() {
				st.checkPut(b.ks, k, h.Put(b.ks.keys[k], b.ks.vals[k]), nil)
				return
			}
			v, ok := h.Get(b.ks.keys[k])
			st.checkGet(b.ks, k, v, ok, nil)
		}
		stats = append(stats, st)
		loaders = append(loaders, func(stop *atomic.Bool) { closedLoop(&c, s, st, timeWindows(nwin), stop, sample, exec, nil) })
	}
	return runPhase(&c, time.Duration(sec)*time.Second, stats, loaders).summarize()
}

func (b *directHot) run(sec int) summary { return b.loadPhase(sec, directSample) }

// traced times every op: the spans around Handle.Get and Handle.Put.
func (b *directHot) traced(sec int, m metricSet) summary {
	sum := b.loadPhase(sec, 1)
	m.set("handle.get_ns", sum.getP50*1e3, "ns")
	m.set("handle.put_ns", sum.putP50*1e3, "ns")
	return sum
}

func (b *directHot) sweep(t *tally) {
	sweep(b.ks, func(key string) ([]byte, bool, error) {
		v, ok := b.handles[0].Get(key)
		return v, ok, nil
	}, t)
}

func (b *directHot) fillIn(m metricSet, t *tally) {
	_, sp, links := lockstepTraced(b.ks, store.NewServer(b.st, 1), b.streams[:1], 1)
	sp.wireMetrics(m, links)
	routedFillIn(b.ks, b.streams[0], m)
	migrateFillIn(b.ks, b.streams[0], m, t)
}

func (b *directHot) ops() *stream { return b.streams[0] }

func (b *directHot) close() {}
