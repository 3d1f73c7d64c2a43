package main

import (
	"sync/atomic"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/stats"
	"ssync/internal/store"
)

// migrateCycles is the probe's resize cycle count.
const migrateCycles = 4

// The migration probe: a 1-node cluster under one lock-step routed
// client from Dial(1), while the probe runs cycles of AddNode then
// RemoveNode of the older member. Retired members keep serving. It is
// the only place migration runs: copy, digest, commit under the
// filters' exclusive lock, and forwarding.
type migration struct {
	ks     *keyspace
	cl     *cluster.Cluster
	client *cluster.Client
	s      *stream
}

func newMigration(ks *keyspace, s *stream) *migration {
	b := &migration{ks: ks, cl: cluster.New(cluster.Options{Nodes: 1}), s: s}
	h := b.cl.Store(0).NewHandle(0)
	preload(ks, func(_ int, key string, v []byte) { h.Put(key, v) })
	b.client = b.cl.Dial(1)
	return b
}

// migTrace is the migration timeline of the probe's cycles.
type migTrace struct {
	add, remove, moved, stall []float64
}

// cycles runs n resize cycles under the client's load, after the usual
// warm-up, checking every op and every membership change into t.
func (b *migration) cycles(n int, t *tally) migTrace {
	var c clock
	var stop atomic.Bool
	var cycle atomic.Int32 // 0 in warm-up, i+1 during cycle i
	gaps := make([]int64, n+1)
	done := make(chan struct{})
	var lt tally
	exec := kvExec(b.ks, b.client, &lt)
	c.t0 = time.Now()
	go func() {
		defer close(done)
		last := c.now()
		for !stop.Load() {
			exec(b.s.next())
			now := c.now()
			if w := cycle.Load(); now-last > gaps[w] {
				gaps[w] = now - last
			}
			last = now
		}
	}()
	time.Sleep(warmWindows * window)
	var mt migTrace
	for i := 0; i < n; i++ {
		cycle.Store(int32(i + 1))
		older := b.cl.Members()[0]
		t0 := c.now()
		id, err := b.cl.AddNode()
		t.attempted++
		if err != nil {
			t.fail("add node: %v", err)
			continue
		}
		t1 := c.now()
		in := b.cl.Store(id).NewHandle(0).Len()
		out := b.cl.Store(older).NewHandle(0).Len()
		t2 := c.now()
		err = b.cl.RemoveNode(older)
		t3 := c.now()
		t.attempted++
		if err != nil {
			t.fail("remove node %d: %v", older, err)
		}
		mt.add = append(mt.add, float64(t1-t0)/1e6)
		mt.remove = append(mt.remove, float64(t3-t2)/1e6)
		mt.moved = append(mt.moved, float64(in+out))
	}
	stop.Store(true)
	<-done
	t.add(&lt)
	for _, g := range gaps[1:] {
		mt.stall = append(mt.stall, float64(g)/1e6)
	}
	return mt
}

func (mt *migTrace) metrics(m metricSet) {
	m.set("migrate.add_ms", stats.Median(mt.add), "ms")
	m.set("migrate.remove_ms", stats.Median(mt.remove), "ms")
	m.set("migrate.keys_moved", stats.Median(mt.moved), "keys")
	m.set("migrate.stall_ms", stats.Median(mt.stall), "ms")
}

// sweep reads every key through the routed client, then checks that
// each key lives exactly once, on its ring owner: the owner holds it
// with the right value, and the stores of all members, retired ones
// included, hold nKeys entries in total.
func (b *migration) sweep(t *tally) {
	sweep(b.ks, b.client.Get, t)
	ring := b.cl.Ring()
	total := 0
	handles := make([]*store.Handle, ring.MaxID()+1)
	for id := range handles {
		handles[id] = b.cl.Store(id).NewHandle(0)
		total += handles[id].Len()
	}
	t.attempted++
	if total != nKeys {
		t.fail("%d entries across %d members' stores, want %d", total, len(handles), nKeys)
	}
	for k, key := range b.ks.keys {
		v, ok := handles[ring.Owner(key)].Get(key)
		t.checkGet(b.ks, k, v, ok, nil)
	}
}

func (b *migration) close() {
	b.client.Close()
	b.cl.Close()
}

// migrateFillIn runs the migration probe for migrateCycles cycles with
// the workload's ops and sweeps the result.
func migrateFillIn(ks *keyspace, s *stream, m metricSet, t *tally) {
	b := newMigration(ks, fresh(s))
	mt := b.cycles(migrateCycles, t)
	mt.metrics(m)
	b.sweep(t)
	b.close()
}
