package harness

import (
	"fmt"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/store"
	"ssync/internal/topo"
	"ssync/internal/workload"
)

// This file is the one runner of the serving stack. Every store, store-
// engine, store-pipe, cluster and place experiment, `ssync store` and
// `ssync cluster` describe a run as a StackSpec — the system, the client
// transport, the scenario — and hand it to RunStack, so their figures
// come out of the same build, preload, snapshot and teardown steps.
// MigrateBench builds and preloads its cluster through the same builder.

// StackSpec is one serving-stack run.
type StackSpec struct {
	// Store configures the bare store, or every member's store in a
	// cluster.
	Store store.Options
	// Nodes > 0 builds an n-node cluster driven by consistent-hash routed
	// clients (cluster.Dial(Window)) instead of a bare store behind one
	// wire server.
	Nodes int
	// Vnodes and Place configure the cluster's ring and its per-member
	// shard placement. A bare store places through Store.Placement.
	Vnodes int
	Place  topo.Policy
	// Local drives a bare store through in-process LocalConns instead of
	// the wire protocol.
	Local bool
	// Window picks a bare store's wire client: 0 is the lock-step
	// store.Client, n > 0 an AsyncClient keeping n requests in flight.
	Window int
	// Scenario is the workload. Its Preload runs over the same transport
	// before the counters are snapshotted.
	Scenario workload.Scenario
}

// StackResult is what one RunStack measured.
type StackResult struct {
	Phases []workload.PhaseResult
	// Ops is the op count each shard (bare store) or node (cluster)
	// served during the phases; the preload is not in it.
	Ops []uint64
	// Elapsed is the phases' total duration.
	Elapsed time.Duration
	// System is the store's or cluster's String.
	System string
}

// Steady returns the last, measured phase.
func (r StackResult) Steady() workload.PhaseResult { return r.Phases[len(r.Phases)-1] }

// RunStack builds the spec's system, preloads it, runs the scenario's
// phases and closes everything it built.
func RunStack(sp StackSpec) (StackResult, error) {
	s := sp.build()
	defer s.close()
	res := StackResult{System: s.name}
	sc := sp.Scenario
	if err := s.preload(sc.Preload, sc.ValueSize); err != nil {
		return res, fmt.Errorf("preload: %w", err)
	}
	sc.Preload = 0
	before := s.ops()
	phases, err := workload.Run(sc, func(c int) (workload.Conn, error) { return s.dial(c), nil })
	if err != nil {
		return res, err
	}
	res.Phases, res.Ops = phases, s.ops()
	for i := range res.Ops {
		res.Ops[i] -= before[i]
	}
	for _, ph := range phases {
		res.Elapsed += ph.Duration
	}
	return res, nil
}

// stack is a built system: a bare store or a cluster (c), the dialer of
// the spec's transport, and the op count served so far by each shard of
// a bare store or each node of a cluster.
type stack struct {
	c     *cluster.Cluster
	name  string
	dial  func(client int) workload.Conn
	ops   func() []uint64
	close func()
}

func (sp StackSpec) build() *stack {
	if sp.Nodes > 0 {
		c := cluster.New(cluster.Options{Nodes: sp.Nodes, Vnodes: sp.Vnodes, Store: sp.Store, Place: sp.Place})
		return &stack{c: c, name: c.String(), close: c.Close,
			dial: func(int) workload.Conn { return store.Driver{C: c.Dial(sp.Window)} },
			ops: func() []uint64 {
				out := make([]uint64, c.Nodes())
				for i := range out {
					for _, n := range shardOps(c.Store(i)) {
						out[i] += n
					}
				}
				return out
			},
		}
	}
	st := store.New(sp.Store)
	srv := store.NewServer(st, 2)
	s := &stack{name: st.String(), close: st.Close,
		dial: func(int) workload.Conn { return store.Driver{C: srv.PipeClient()} },
		ops:  func() []uint64 { return shardOps(st) },
	}
	switch {
	case sp.Local:
		s.dial = func(c int) workload.Conn { return store.Driver{C: st.NewLocalConn(c % 2)} }
	case sp.Window > 0:
		s.dial = func(int) workload.Conn { return store.Driver{C: srv.PipeAsyncClient(sp.Window)} }
	}
	return s
}

// preload inserts keys 0..n-1 over one client of the run's transport.
func (s *stack) preload(n, valueSize int) error {
	if n <= 0 {
		return nil
	}
	c := s.dial(0)
	defer c.Close()
	return workload.Preload(c, n, valueSize)
}

func shardOps(st *store.Store) []uint64 {
	stats := st.NewHandle(0).ShardStats()
	out := make([]uint64, len(stats))
	for i, c := range stats {
		out[i] = c.Total()
	}
	return out
}

// stackScenario is the workload every serving-stack experiment shares:
// a 95:5 get/put mix over 4096 keys, half of them preloaded, a ramp and
// then the measured steady phase at the shard's thread count.
func stackScenario(s Shard, dist workload.Dist) workload.Scenario {
	ops := nativeOps(s.Config) / 4
	if ops < 200 {
		ops = 200
	}
	return workload.Scenario{
		Dist:    dist,
		Mix:     workload.Mix{Get: 95, Put: 5},
		Preload: 2048,
		Phases:  workload.RampSteady(s.Threads, ops),
	}
}

// stackCell is one labelled run of a serving-stack experiment.
type stackCell struct {
	metric string
	spec   StackSpec
}

// runCells runs each cell on a fresh system and reports its steady-phase
// Kops/s under the cell's label.
func runCells(cells []stackCell) ([]Sample, error) {
	out := make([]Sample, 0, len(cells))
	for _, c := range cells {
		res, err := RunStack(c.spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.metric, err)
		}
		out = append(out, Sample{Metric: c.metric, Value: res.Steady().Kops()})
	}
	return out, nil
}
