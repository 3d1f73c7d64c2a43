package main

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/locks"
	"ssync/internal/stats"
	"ssync/internal/store"
)

// The traced run reports every layer on every workload. A layer the
// workload's own shape reaches is measured from its traced run; the
// stack layers it does not reach get a short probe of that layer's
// shape, fed with the workload's op stream (fillIn); and the ladder
// below replays the workload's ops into single layers, alone on one
// goroutine, through their public functions.

const (
	replayGroups = groupCount              // 4-op groups per replay: all of routed-batch's
	replayOps    = groupOps * replayGroups // point ops per replay
	replayReps   = 5                       // a replay reports the median of its repetitions
)

// fresh returns a copy of s rewound to its start, so replays see the
// same ops on every run.
func fresh(s *stream) *stream { return &stream{ops: s.ops} }

// routedFillIn measures the routing-client layer on a 2-node cluster
// driven with s's ops in groups, the shape of routed-batch.
func routedFillIn(ks *keyspace, s *stream, m metricSet) {
	b := newRoutedBatch(ks, newGroups(ks, fresh(s)))
	_, tr := b.tracedGroups(1)
	tr.clusterMetrics(m)
	b.close()
}

// timeReps runs f replayReps times and returns the median duration.
func timeReps(f func()) time.Duration {
	d := make([]float64, replayReps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(stats.Median(d))
}

// allocsOf counts the heap allocations of one call of f.
func allocsOf(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// ladder runs the single-layer replays. timeHandle is false when the
// workload's traced run already timed Handle.Get and Handle.Put; batched
// is set when the workload sends batch frames.
func ladder(ks *keyspace, s *stream, m metricSet, timeHandle, batched bool) {
	st := store.New(store.Options{Shards: 16})
	h := st.NewHandle(0)
	preload(ks, func(_ int, key string, v []byte) { h.Put(key, v) })
	ops := fresh(s).ops[:replayOps]

	// Handle: point ops alone on one goroutine.
	var gets, puts []op
	for _, o := range ops {
		if o.isPut() {
			puts = append(puts, o)
		} else {
			gets = append(gets, o)
		}
	}
	getAll := func() {
		for _, o := range gets {
			h.Get(ks.keys[o.key()])
		}
	}
	putAll := func() {
		for _, o := range puts {
			h.Put(ks.keys[o.key()], ks.vals[o.key()])
		}
	}
	if timeHandle {
		if len(gets) > 0 {
			m.set("handle.get_ns", float64(timeReps(getAll))/float64(len(gets)), "ns")
		}
		if len(puts) > 0 {
			m.set("handle.put_ns", float64(timeReps(putAll))/float64(len(puts)), "ns")
		}
	}
	m.set("handle.allocs_per_op", float64(allocsOf(func() { getAll(); putAll() }))/float64(len(ops)), "allocs/op")

	// Batches: the workload's ops in 4-op groups.
	groups := make([][]store.Request, replayGroups)
	for g := range groups {
		for _, o := range ops[groupOps*g : groupOps*(g+1)] {
			r := store.Request{Op: store.OpGet, Key: ks.keys[o.key()]}
			if o.isPut() {
				r = store.Request{Op: store.OpPut, Key: ks.keys[o.key()], Value: ks.vals[o.key()]}
			}
			groups[g] = append(groups[g], r)
		}
	}
	reqBodies := make([][]byte, len(groups))
	var buf []byte
	appendAll := func() {
		for _, g := range groups {
			buf, _ = store.AppendBatchRequest(buf[:0], store.Batch{Op: store.OpBatch, Reqs: g})
		}
	}
	m.set("codec.append_batch_req_ns", float64(timeReps(appendAll))/replayGroups, "ns")
	for i, g := range groups {
		reqBodies[i], _ = store.AppendBatchRequest(nil, store.Batch{Op: store.OpBatch, Reqs: g})
	}
	parseReqs := func() {
		for _, body := range reqBodies {
			if _, err := store.ParseBatchRequest(body); err != nil {
				panic(err) // bodies were encoded by AppendBatchRequest above
			}
		}
	}
	m.set("codec.parse_batch_req_ns", float64(timeReps(parseReqs))/replayGroups, "ns")
	m.set("codec.parse_batch_req_allocs", float64(allocsOf(parseReqs))/replayGroups, "allocs")

	execAll := func() {
		for _, g := range groups {
			h.ExecBatch(g)
		}
	}
	m.set("handle.execbatch_ns", float64(timeReps(execAll))/replayGroups, "ns")
	subOps := make([][]byte, len(groups))
	respBodies := make([][]byte, len(groups))
	for i, g := range groups {
		subOps[i] = store.Batch{Op: store.OpBatch, Reqs: g}.SubOps()
		respBodies[i], _ = store.AppendBatchResponse(nil, subOps[i], h.ExecBatch(g))
	}
	parseResps := func() {
		for i, body := range respBodies {
			if _, err := store.ParseBatchResponse(subOps[i], body); err != nil {
				panic(err)
			}
		}
	}
	m.set("codec.parse_batch_resp_ns", float64(timeReps(parseResps))/replayGroups, "ns")
	m.set("codec.parse_batch_resp_allocs", float64(allocsOf(parseResps))/replayGroups, "allocs")

	// Point frames: request parsing time, response parsing allocations.
	pointReqs := make([][]byte, len(ops))
	pointResps := make([][]byte, len(ops))
	pointOps := make([]byte, len(ops))
	for i, o := range ops {
		r := store.Request{Op: store.OpGet, Key: ks.keys[o.key()]}
		resp := store.Response{Status: store.StatusOK, Value: ks.vals[o.key()]}
		if o.isPut() {
			r = store.Request{Op: store.OpPut, Key: ks.keys[o.key()], Value: ks.vals[o.key()]}
			resp = store.Response{Status: store.StatusOK}
		}
		pointOps[i] = r.Op
		pointReqs[i], _ = store.AppendRequest(nil, r)
		pointResps[i], _ = store.AppendResponse(nil, r.Op, resp)
	}
	m.set("codec.parse_req_ns", float64(timeReps(func() {
		for _, body := range pointReqs {
			if _, err := store.ParseRequest(body); err != nil {
				panic(err)
			}
		}
	}))/float64(len(ops)), "ns")
	m.set("codec.parse_resp_allocs", float64(allocsOf(func() {
		for i, body := range pointResps {
			if _, err := store.ParseResponse(pointOps[i], body); err != nil {
				panic(err)
			}
		}
	}))/float64(len(ops)), "allocs")

	filterReplay(ks, st, reqBodies, pointReqs, batched, m)
	lockLadder(m)
}

// memConn is a connection that reads a prepared byte stream and discards
// what is written: ServeConn over it runs the server alone.
type memConn struct {
	r *bytes.Reader
}

func (c memConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c memConn) Write(p []byte) (int, error) { return len(p), nil }

// frames concatenates bodies as a stream of length-prefixed frames,
// tagged when tagged is set (the routed client's framing).
func frames(bodies [][]byte, tagged bool) []byte {
	var out bytes.Buffer
	var body []byte
	for i, b := range bodies {
		body = body[:0]
		if tagged {
			body = store.AppendTaggedRequest(body, uint32(i+1))
		}
		body = append(body, b...)
		if err := store.WriteFrame(&out, body); err != nil {
			panic(err) // bodies are single requests, far below MaxFrame
		}
	}
	return out.Bytes()
}

// filterReplay serves the same request stream to a 1-node cluster's
// routed server and to a bare server over an identical store, and
// reports the per-frame difference: the cost of the routing filter.
// Tagged batch frames are replayed for a batched workload, untagged
// point frames otherwise.
func filterReplay(ks *keyspace, bare *store.Store, batches, points [][]byte, batched bool, m metricSet) {
	cl := cluster.New(cluster.Options{Nodes: 1})
	defer cl.Close()
	h := cl.Store(0).NewHandle(0)
	preload(ks, func(_ int, key string, v []byte) { h.Put(key, v) })
	routed, plain := cl.Server(0), store.NewServer(bare, 1)
	stream, n := frames(points, false), len(points)
	if batched {
		stream, n = frames(batches, true), len(batches)
	}
	serve := func(sv *store.Server) float64 {
		t0 := time.Now()
		if err := sv.ServeConn(memConn{r: bytes.NewReader(stream)}); err != nil && err != io.EOF {
			panic(err) // the frames were encoded by the store's own codec
		}
		return float64(time.Since(t0))
	}
	// Alternate the two servers so drift in the host hits both alike.
	var r, p []float64
	for i := 0; i < replayReps; i++ {
		r = append(r, serve(routed))
		p = append(p, serve(plain))
	}
	m.set("cluster.filter_us", (stats.Median(r)-stats.Median(p))/float64(n)/1e3, "us")
}

// lockIters is the acquisitions per lock measurement.
const lockIters = 1 << 16

// lockLadder times every lock algorithm the store can run: alone (one
// goroutine acquiring and releasing), and handed off between two
// goroutines that both loop over a critical section the size of a
// bucket probe. This puts the paper's lock ranking on the host.
func lockLadder(m metricSet) {
	for _, alg := range locks.All {
		l := locks.New(alg, locks.Options{})
		var cs probe
		tok := l.NewToken(0)
		solo := timeReps(func() {
			for i := 0; i < lockIters; i++ {
				l.Acquire(tok)
				cs.run(i)
				l.Release(tok)
			}
		})
		m.set("locks."+string(alg)+".solo_ns", float64(solo)/lockIters, "ns")
		toks := [2]*locks.Token{tok, l.NewToken(0)}
		handoff := timeReps(func() {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(t *locks.Token) {
					defer wg.Done()
					for i := 0; i < lockIters/2; i++ {
						l.Acquire(t)
						cs.run(i)
						l.Release(t)
					}
				}(toks[g])
			}
			wg.Wait()
		})
		m.set("locks."+string(alg)+".handoff_ns", float64(handoff)/lockIters, "ns")
	}
}

// probe is the critical section: compare a hash against one bucket
// segment's seven slots and touch the matching one, as a store lookup
// does under the shard lock.
type probe struct {
	hashes [7]uint64
	hits   uint64
}

func (p *probe) run(i int) {
	h := uint64(i) * 0x9e3779b97f4a7c15
	for j := range p.hashes {
		if p.hashes[j] == h {
			p.hits++
		}
	}
	p.hashes[i%7] = h
}
