package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/harness"
	"ssync/internal/topo"
)

// ClusterMain implements `ssync cluster`: it spins up an N-node store
// cluster (every node a full wire server on the chosen shard engine and
// lock algorithm), drives it with the scenario engine through
// consistent-hash routed async clients, runs the same scenario against
// a single-node cluster as the baseline, and emits both — routed
// multi-node rows and the single-node baseline — from the one
// invocation through the standard JSON/CSV/table emitters.
func ClusterMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := addStackFlags(fs, 8, 4, 8, "shard engine per node (locked, actor, optimistic)")
	nodes := fs.Int("nodes", 4, "cluster node count")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "ring virtual points per node")
	resize := fs.Bool("resize", false, "measure a live resize (grow then shrink) under load instead of the throughput scenario")
	window := fs.Duration("window", 300*time.Millisecond, "with -resize: steady and post-resize measurement window")
	output := outputFlags(fs)
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}

	run, err := f.resolve(false)
	switch {
	case err != nil:
	case *nodes < 1:
		err = errors.New("-nodes must be at least 1")
	case *vnodes < 1:
		err = errors.New("-vnodes must be at least 1")
	}
	var emitter harness.Emitter
	if err == nil {
		emitter, err = output()
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 2
	}
	if run.policy.Pins() {
		fmt.Fprintf(stderr, "placement: %s, nodes striped over %s\n", run.policy, topo.Discover())
	}
	eng := run.opt.Engine

	// -resize: instead of the throughput scenario, measure a live
	// membership change — grow by one node, then retire an original
	// member — under continuous client load, and report what the
	// migration cost: steady vs dip throughput, recovery time, and the
	// blocking duration of the membership calls themselves.
	if *resize {
		experiment := fmt.Sprintf("migrate/%dx%s", *nodes, eng)
		res, err := harness.MigrateBench(harness.MigrateBenchConfig{
			Nodes:     *nodes,
			Vnodes:    *vnodes,
			Place:     run.policy,
			Engine:    eng,
			Lock:      run.opt.Lock,
			Shards:    run.opt.Shards,
			Clients:   run.clients,
			Keys:      run.scenario.Keys,
			Preload:   run.scenario.Preload,
			ValueSize: run.scenario.ValueSize,
			Steady:    *window,
			Remove:    *nodes > 1,
		})
		if err != nil {
			fmt.Fprintln(stderr, "ssync cluster:", err)
			return 1
		}
		fmt.Fprintf(stderr, "resize %d→%d nodes (%s engine): moved %d of %d keys, add %.1fms",
			*nodes, *nodes+1, eng, res.Moved, run.scenario.Keys, res.AddMs)
		if *nodes > 1 {
			fmt.Fprintf(stderr, ", remove %.1fms", res.RemoveMs)
		}
		fmt.Fprintln(stderr)
		results := []harness.Result{
			oneResult(experiment, run.clients, "steady Kops/s", res.SteadyKops),
			oneResult(experiment, run.clients, "dip Kops/s", res.DipKops),
			oneResult(experiment, run.clients, "dip %", res.DipPct),
			oneResult(experiment, run.clients, "recovery ms", res.RecoveryMs),
			oneResult(experiment, run.clients, "ops after resize", float64(res.TailOps)),
			oneResult(experiment, run.clients, "add ms", res.AddMs),
		}
		if *nodes > 1 {
			results = append(results, oneResult(experiment, run.clients, "remove ms", res.RemoveMs))
		}
		if err := emitter.Emit(stdout, results); err != nil {
			fmt.Fprintln(stderr, "ssync cluster:", err)
			return 1
		}
		return 0
	}

	experiment := fmt.Sprintf("cluster/%dx%s", *nodes, eng)
	sc := run.scenario
	transport := fmt.Sprintf("routed wire (depth %d × batch %d)", sc.Pipeline, sc.Batch)
	runOn := func(n int) (harness.StackResult, error) {
		res, err := harness.RunStack(harness.StackSpec{
			Nodes: n, Vnodes: *vnodes, Place: run.policy, Store: run.opt, Window: sc.Pipeline, Scenario: sc,
		})
		if err == nil {
			printRun(stderr, res, transport, sc)
		}
		return res, err
	}

	var results []harness.Result

	// The single-node baseline: the same scenario, engine, locks and
	// client shape against one node, from this same invocation — the row
	// every multi-node number is read against.
	if *nodes > 1 {
		base, err := runOn(1)
		if err != nil {
			fmt.Fprintln(stderr, "ssync cluster: single-node baseline:", err)
			return 1
		}
		results = append(results,
			oneResult(experiment, run.clients, "single-node baseline Kops/s", base.Steady().Kops()))
	}

	res, err := runOn(*nodes)
	if err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 1
	}
	results = append(results, summaryResults(experiment, run.clients, res.Phases)...)
	results = append(results, partResults(experiment, run.clients, "node", res)...)
	if err := emitter.Emit(stdout, results); err != nil {
		fmt.Fprintln(stderr, "ssync cluster:", err)
		return 1
	}
	return 0
}
