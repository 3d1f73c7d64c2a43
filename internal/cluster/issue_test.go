package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ssync/internal/race"
	"ssync/internal/store"
	"ssync/internal/workload"
	"ssync/internal/xrand"
)

// issueGroups preloads n keys with valLen-byte values through cl and
// returns groups 4-op groups over them, 95:5 get:put. Puts overwrite a
// preloaded key, so every group's outcome is known up front: gets hit,
// puts create nothing.
func issueGroups(t *testing.T, cl *Client, n, groups, valLen int) [][]workload.Op {
	t.Helper()
	keys := make([]string, n)
	val := make([]byte, valLen)
	for i := range keys {
		keys[i] = workload.Key(uint64(i))
		if _, err := cl.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(1)
	out := make([][]workload.Op, groups)
	for g := range out {
		out[g] = make([]workload.Op, 4)
		for j := range out[g] {
			k := keys[rng.Intn(n)]
			if rng.Intn(100) < 5 {
				out[g][j] = workload.Op{Kind: workload.KindPut, Key: k, Value: val}
			} else {
				out[g][j] = workload.Op{Kind: workload.KindGet, Key: k}
			}
		}
	}
	return out
}

// gets counts a group's gets.
func gets(ops []workload.Op) uint64 {
	n := uint64(0)
	for _, op := range ops {
		if op.Kind == workload.KindGet {
			n++
		}
	}
	return n
}

// TestRoutedIssueAllocs gates the routed, pipelined batch path end to
// end, in the shape of the routed-batch benchmark: preloaded keys,
// 4-op 95:5 groups, 8 groups in flight through Issue/Wait, on every
// engine over a single node and a 4-node ring. It counts every
// allocation in the process — client split, async windows, batch
// codec, the server's parse, nodeFilter and per-shard execution, the
// response and its decode — and holds the steady state to at most 2
// allocs per op (it is 0 when the pools are warm).
func TestRoutedIssueAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, eng := range store.Engines {
		for _, nodes := range []int{1, 4} {
			eng, nodes := eng, nodes
			t.Run(fmt.Sprintf("%s/%dn", eng, nodes), func(t *testing.T) {
				perOp := routedIssueAllocs(t, nodes, eng)
				t.Logf("routed Issue/Wait: %.3f allocs/op", perOp)
				if perOp > 2 {
					t.Errorf("routed Issue/Wait: %.2f allocs/op, want <= 2", perOp)
				}
			})
		}
	}
}

// routedIssueAllocs measures steady-state allocs/op of Issue/Wait on a
// nodes-node eng cluster, failing t if any group resolves wrongly.
func routedIssueAllocs(t *testing.T, nodes int, eng store.Engine) float64 {
	const inFlight, groupOps = 8, 4
	c := newTestCluster(t, nodes, store.Options{Shards: 8, Engine: eng})
	cl := c.Dial(inFlight)
	defer cl.Close()
	groups := issueGroups(t, cl, 1024, 512, 64)

	var window [inFlight]struct {
		p workload.Pending
		g int
	}
	head, n, next, bad := 0, 0, 0, 0
	step := func() {
		if n == inFlight {
			s := &window[head]
			out, err := s.p.Wait()
			if err != nil || out.Ops != groupOps || out.Hits != gets(groups[s.g]) || out.Created != 0 {
				bad++
			}
			head, n = (head+1)%inFlight, n-1
		}
		s := &window[(head+n)%inFlight]
		s.g, s.p = next, cl.Issue(groups[next])
		next, n = (next+1)%len(groups), n+1
	}
	for i := 0; i < 4*len(groups); i++ {
		step() // warm-up: pools, windows and scratch reach steady state
	}
	perOp := testing.AllocsPerRun(2000, step) / groupOps
	for ; n > 0; n-- {
		if _, err := window[head].p.Wait(); err != nil {
			bad++
		}
		head = (head + 1) % inFlight
	}
	if bad != 0 {
		t.Fatalf("%d groups resolved with a wrong outcome", bad)
	}
	return perOp
}

// pipeClient dials a routing client by hand over pipes whose server
// ends the test holds, so it can kill one node's connection mid-flight.
func pipeClient(t *testing.T, c *Cluster, window int) (*Client, []net.Conn) {
	t.Helper()
	ring := c.Ring()
	conns := make([]*store.AsyncClient, ring.MaxID()+1)
	serverEnds := make([]net.Conn, ring.MaxID()+1)
	for _, id := range ring.Members() {
		clientEnd, serverEnd := net.Pipe()
		go func(sv *store.Server) {
			defer serverEnd.Close()
			_ = sv.ServeConn(serverEnd)
		}(c.Server(id))
		conns[id], serverEnds[id] = store.NewAsyncClient(clientEnd, window), serverEnd
	}
	cl, err := NewClient(ring, conns)
	if err != nil {
		t.Fatal(err)
	}
	return cl, serverEnds
}

// TestRoutedIssuePipelineRecycling stresses the recycling of routed
// pendings and their per-node futures, with values larger than the
// writer's buffer, so a frame's response can arrive while WriteFrame is
// still writing it: lock-step groups, then Issue-pipelined groups 8
// deep over windows of 2 (so submissions block on full windows), then a
// killed server connection, then Close racing in-flight groups. Every
// Wait must return — a future resolved twice or reached by a loop after
// its recycle would either hang a later Wait or hand a later group a
// stale outcome — and every group that succeeds must report exactly its
// own counts. Run it under -race: the detector sees any writer or
// reader touching a future after its waiter recycled it.
func TestRoutedIssuePipelineRecycling(t *testing.T) {
	const inFlight, groupOps = 8, 4
	c := newTestCluster(t, 2, store.Options{Shards: 4})
	cl, serverEnds := pipeClient(t, c, 2)
	groups := issueGroups(t, cl, 256, 256, 6<<10)

	type slot struct {
		p workload.Pending
		g int
	}
	var window []slot
	failed := 0
	settle := func(s slot) {
		done := make(chan struct{})
		var out workload.Outcome
		var err error
		go func() {
			defer close(done)
			out, err = s.p.Wait()
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("group %d: Wait did not return", s.g)
		}
		want := gets(groups[s.g])
		switch {
		case err != nil:
			failed++
			if out.Ops > groupOps || out.Hits > want || out.Created != 0 {
				t.Errorf("group %d failed (%v) with impossible counts %+v", s.g, err, out)
			}
		case out.Ops != groupOps || out.Hits != want || out.Misses != 0 || out.Created != 0:
			t.Errorf("group %d: outcome %+v, want %d ops, %d hits", s.g, out, groupOps, want)
		}
	}
	depth := inFlight
	issue := func(count int) {
		for i := 0; i < count; i++ {
			if len(window) == depth {
				settle(window[0])
				window = append(window[:0], window[1:]...)
			}
			g := i % len(groups)
			window = append(window, slot{p: cl.Issue(groups[g]), g: g})
		}
	}
	drain := func() {
		for _, s := range window {
			settle(s)
		}
		window = window[:0]
	}

	// Lock-step first: the group waited for is the one just written, so
	// its waiter recycles the futures while the writer may still be
	// inside WriteFrame. Then window exhaustion: 8 groups in flight over
	// windows of 2.
	depth = 1
	issue(1000)
	depth = inFlight
	issue(2000)
	drain()
	if failed != 0 {
		t.Fatalf("%d groups failed on healthy connections", failed)
	}

	// A killed server connection: node 1's groups fail, node 0's keep
	// succeeding, and recycled futures are resubmitted to the dead
	// client, which must fail them at once.
	issue(inFlight)
	serverEnds[1].Close()
	issue(400)
	drain()
	if failed == 0 {
		t.Fatal("no group failed after node 1's connection was killed")
	}

	// Close mid-flight: every in-flight group still resolves.
	issue(inFlight)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.Close()
	}()
	issue(200)
	drain()
	wg.Wait()
}
