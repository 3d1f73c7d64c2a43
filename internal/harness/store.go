package harness

import (
	"fmt"
	"strings"

	"ssync/internal/locks"
	"ssync/internal/store"
	"ssync/internal/workload"
)

// This file registers the serving stack's throughput experiments, each a
// set of RunStack cells over the shared stackScenario:
//
//   - store/<alg> and store-engine/<engine>[/<alg>]: the paper's paradigm
//     comparison run end-to-end. One store, twice: in-process connections
//     ("direct") and the lock-step wire protocol over net.Pipe ("wire"),
//     so the grid shows what the engine and shard-lock choice costs and
//     how much of it survives a real request path. locked and optimistic
//     sweep the lock algorithm (the optimistic engine's writers still
//     serialize through it); the lock-free actor engine registers once.
//   - store-pipe/<alg>: the same store behind the async client, sweeping
//     pipeline depth × batch size.
//   - cluster/<n>x<engine>: an n-node cluster behind routed pipelined
//     clients, uniform vs zipfian keys.

// storeShards is the shard count of the store experiments; small enough
// that zipfian traffic meaningfully contends the hot shards.
const storeShards = 16

// storePipeGrid is the depth×batch sweep of the store-pipe experiments:
// the lock-step scalar baseline, pipelining alone, batching alone, and
// both together — the four corners that show which lever pays where.
var storePipeGrid = []struct{ depth, batch int }{
	{1, 1}, {16, 1}, {1, 8}, {16, 8},
}

// clusterNodeCounts is the node-count sweep of the cluster experiments;
// the n=1 rows are the single-node baseline the others are read against.
var clusterNodeCounts = []int{1, 2, 4}

// registerEngine registers one direct-vs-wire experiment on a store
// built from opt; what describes the store in the doc line.
func registerEngine(id, what string, opt store.Options) {
	Register(Def{
		ID:  id,
		Doc: "host: sharded KVS " + what + ", zipfian 95:5 scenario, direct and wire Kops/s",
		On:  []string{Native},
		Runner: func(s Shard) ([]Sample, error) {
			opt := opt
			opt.Shards, opt.MaxThreads = storeShards, s.Threads+2
			sc := stackScenario(s, workload.NewZipfian(4096, 0))
			return runCells([]stackCell{
				{"direct Kops/s", StackSpec{Store: opt, Local: true, Scenario: sc}},
				{"wire Kops/s", StackSpec{Store: opt, Scenario: sc}},
			})
		},
	})
}

func init() {
	for _, alg := range locks.All {
		alg, name := alg, strings.ToLower(string(alg))
		registerEngine("store/"+name, "with "+string(alg)+" shard locks", store.Options{Lock: alg})
		for _, eng := range []store.Engine{store.EngineLocked, store.EngineOptimistic} {
			registerEngine(fmt.Sprintf("store-engine/%s/%s", eng, name),
				fmt.Sprintf("on the %s shard engine with %s locks", eng, alg),
				store.Options{Engine: eng, Lock: alg})
		}

		// The d1×b1 corner is the lock-step wire baseline in async
		// clothing (AsyncClient(1)); the far corner shows what amortizing
		// messages (batch frames) and overlapping round trips (the
		// in-flight window) buy on top of the shard-lock choice.
		Register(Def{
			ID: "store-pipe/" + name,
			Doc: "host: sharded KVS with " + string(alg) +
				" shard locks behind the pipelined wire client, depth×batch sweep Kops/s",
			On: []string{Native},
			Runner: func(s Shard) ([]Sample, error) {
				var cells []stackCell
				for _, cell := range storePipeGrid {
					sc := stackScenario(s, workload.NewZipfian(4096, 0))
					sc.Batch, sc.Pipeline = cell.batch, cell.depth
					cells = append(cells, stackCell{
						fmt.Sprintf("d%02d×b%02d Kops/s", cell.depth, cell.batch),
						StackSpec{
							Store:    store.Options{Shards: storeShards, Lock: alg, MaxThreads: s.Threads + 2},
							Window:   cell.depth,
							Scenario: sc,
						},
					})
				}
				return runCells(cells)
			},
		})
	}
	registerEngine("store-engine/actor",
		"on the actor shard engine (goroutine-per-shard mailboxes, no locks)",
		store.Options{Engine: store.EngineActor})

	// cluster/<n>x<engine>: skew is what separates a balanced cluster
	// from one node carrying the hot head, so each cell runs uniform and
	// zipfian keys through Dial(8) clients issuing 4-op groups 8 deep.
	for _, nodes := range clusterNodeCounts {
		for _, eng := range store.Engines {
			nodes, eng := nodes, eng
			Register(Def{
				ID: fmt.Sprintf("cluster/%dx%s", nodes, eng),
				Doc: fmt.Sprintf("host: %d-node store cluster on the %s engine, "+
					"consistent-hash routed pipelined clients, uniform vs zipfian Kops/s", nodes, eng),
				On: []string{Native},
				Runner: func(s Shard) ([]Sample, error) {
					var cells []stackCell
					for _, skew := range []string{"uniform", "zipfian"} {
						dist, err := workload.ParseDist(skew, 4096)
						if err != nil {
							return nil, err
						}
						sc := stackScenario(s, dist)
						sc.Batch, sc.Pipeline = 4, 8
						cells = append(cells, stackCell{skew + " Kops/s", StackSpec{
							Nodes:    nodes,
							Store:    store.Options{Shards: 8, Engine: eng, Lock: locks.TICKET, MaxThreads: s.Threads + 2},
							Window:   8,
							Scenario: sc,
						}})
					}
					return runCells(cells)
				},
			})
		}
	}
}
