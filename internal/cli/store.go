package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"ssync/internal/harness"
	"ssync/internal/locks"
	"ssync/internal/stats"
	"ssync/internal/store"
	"ssync/internal/topo"
	"ssync/internal/workload"
)

// StoreMain implements `ssync store`: it builds a sharded KVS on the
// requested shard engine (locked, actor or optimistic — or all three in
// one comparison run) with the requested lock algorithm, serves it over
// the length-prefixed wire protocol on in-process pipe connections (or
// --local in-process handles), drives it with the scenario engine's
// ramp/steady phases, and emits the per-shard and total throughput
// through the harness emitters.
func StoreMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssync store", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := addStackFlags(fs, 16, 1, 1,
		"shard engine (locked, actor, optimistic), or all to compare every engine in one run")
	buckets := fs.Int("buckets", 64, "buckets per shard")
	local := fs.Bool("local", false, "drive in-process handles instead of the wire protocol")
	output := outputFlags(fs)
	if code, ok := parseArgs(fs, argv); !ok {
		return code
	}
	allEngines := *f.engine == "all"
	run, err := f.resolve(allEngines)
	var emitter harness.Emitter
	if err == nil {
		emitter, err = output()
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 2
	}
	if run.policy.Pins() {
		run.opt.Placement = topo.NewPlacement(run.policy, nil) // nil: discover the host
		fmt.Fprintf(stderr, "placement: %s over %s\n", run.policy, run.opt.Placement.Topo)
	}
	run.opt.Buckets = *buckets
	sc := run.scenario
	window, transport := 0, "wire"
	switch {
	case *local:
		transport = "local"
	case sc.Batch > 1 || sc.Pipeline > 1:
		window = sc.Pipeline
		transport = fmt.Sprintf("pipelined wire (depth %d × batch %d)", sc.Pipeline, sc.Batch)
	}

	// experimentFor names a row set: single locked-engine runs keep the
	// legacy store/<alg> id; engine-qualified runs (and every all-mode
	// row) are store-engine/<engine>/<alg>, with the lock-free actor
	// engine dropping the meaningless lock suffix.
	experimentFor := func(eng store.Engine) string {
		switch {
		case eng == store.EngineActor:
			return "store-engine/actor"
		case eng == store.EngineLocked && !allEngines:
			return "store/" + strings.ToLower(string(run.opt.Lock))
		default:
			return fmt.Sprintf("store-engine/%s/%s", eng, strings.ToLower(string(run.opt.Lock)))
		}
	}
	runOn := func(eng store.Engine, sp harness.StackSpec, transport string) (harness.StackResult, bool) {
		sp.Store = run.opt
		sp.Store.Engine = eng
		res, err := harness.RunStack(sp)
		if err != nil {
			fmt.Fprintf(stderr, "ssync store: %s over %s: %v\n", eng, transport, err)
			return res, false
		}
		printRun(stderr, res, transport, sp.Scenario)
		return res, true
	}

	var results []harness.Result

	// A single-engine pipelined run carries its own lock-step baseline:
	// the same scenario over one-in-flight wire clients against a fresh
	// store, so the emitted table shows what depth×batch bought on this
	// exact engine/alg/shard config. (All-mode compares engines instead.)
	if window > 0 && !allEngines {
		base := sc
		base.Batch, base.Pipeline = 1, 1
		res, ok := runOn(run.engines[0], harness.StackSpec{Scenario: base}, "wire (lock-step baseline)")
		if !ok {
			return 1
		}
		results = append(results,
			oneResult(experimentFor(run.engines[0]), run.clients, "lockstep wire Kops/s", res.Steady().Kops()))
	}

	for _, eng := range run.engines {
		res, ok := runOn(eng, harness.StackSpec{Local: *local, Window: window, Scenario: sc}, transport)
		if !ok {
			return 1
		}
		// An all-engine table keeps to the totals; a single engine also
		// shows its per-shard throughput over the whole run.
		experiment := experimentFor(eng)
		results = append(results, summaryResults(experiment, run.clients, res.Phases)...)
		if !allEngines {
			results = append(results, partResults(experiment, run.clients, "shard", res)...)
		}
	}
	if err := emitter.Emit(stdout, results); err != nil {
		fmt.Fprintln(stderr, "ssync store:", err)
		return 1
	}
	return 0
}

// stackFlags are the flags `ssync store` and `ssync cluster` share: the
// store (each node's, in a cluster) and the scenario driven against it.
type stackFlags struct {
	alg, engine, dist, mix, place                                    *string
	shards, clients, ops, value, scanLimit, preload, batch, pipeline *int
	keys, seed                                                       *uint64
}

// addStackFlags registers the shared flags on fs with the command's
// defaults and its -engine description.
func addStackFlags(fs *flag.FlagSet, shards, batch, pipeline int, engineDoc string) *stackFlags {
	return &stackFlags{
		alg:       fs.String("alg", "ticket", "shard-lock algorithm (tas, ttas, ticket, array, mutex, mcs, clh, hclh, hticket)"),
		engine:    fs.String("engine", "locked", engineDoc),
		shards:    fs.Int("shards", shards, "independently synchronized shards per store"),
		dist:      fs.String("dist", "zipfian", "key distribution: uniform, zipfian, zipfian:<theta>"),
		mix:       fs.String("mix", "95:5", "op mix get:put or get:put:scan percentages"),
		clients:   fs.Int("clients", 8, "steady-phase client connections"),
		keys:      fs.Uint64("keys", 16384, "key-space size"),
		ops:       fs.Int("ops", 20000, "steady-phase operations per client"),
		value:     fs.Int("value", 64, "value size in bytes"),
		scanLimit: fs.Int("scanlimit", 16, "entries per scan"),
		preload:   fs.Int("preload", -1, "keys preloaded before the run (-1 = half the key space)"),
		seed:      fs.Uint64("seed", 0, "workload RNG seed (0 = fixed default)"),
		batch:     fs.Int("batch", batch, "ops per multi-op request or routed op group (1 = scalar ops)"),
		pipeline:  fs.Int("pipeline", pipeline, "op groups each client keeps in flight (1 = lock-step)"),
		place: fs.String("place", "none", "shard placement over the host topology (none, compact, scatter, auto); "+
			"cluster nodes stripe across the host's memory nodes"),
	}
}

// stackRun is the validated form of stackFlags.
type stackRun struct {
	engines  []store.Engine
	clients  int
	opt      store.Options // shards, engine, lock, MaxThreads
	policy   topo.Policy
	scenario workload.Scenario
}

// resolve validates the shared flags; every error it returns is a usage
// error. all accepts -engine all, which selects every engine.
func (f *stackFlags) resolve(all bool) (stackRun, error) {
	r := stackRun{engines: store.Engines, clients: *f.clients}
	alg, err := lockAlgorithm(*f.alg)
	if err != nil {
		return r, err
	}
	if !all {
		eng, err := store.ParseEngine(*f.engine)
		if err != nil {
			return r, err
		}
		r.engines = []store.Engine{eng}
	}
	for _, v := range []struct {
		name string
		n    int
	}{{"clients", *f.clients}, {"ops", *f.ops}, {"shards", *f.shards}, {"value", *f.value}} {
		if v.n < 1 {
			return r, fmt.Errorf("-%s must be at least 1", v.name)
		}
	}
	if *f.keys < 1 {
		return r, errors.New("-keys must be at least 1")
	}
	dist, err := workload.ParseDist(*f.dist, *f.keys)
	if err != nil {
		return r, err
	}
	mix, err := workload.ParseMix(*f.mix)
	if err != nil {
		return r, err
	}
	if r.policy, err = topo.ParsePolicy(*f.place); err != nil {
		return r, err
	}
	preload := *f.preload
	if preload < 0 {
		preload = int(*f.keys / 2)
	}
	if uint64(preload) > *f.keys {
		return r, fmt.Errorf("-preload %d exceeds the %d-key space", preload, *f.keys)
	}
	batch, pipeline := max(*f.batch, 1), max(*f.pipeline, 1)
	if batch > store.MaxBatchOps {
		return r, fmt.Errorf("-batch %d exceeds the wire limit of %d ops per frame", batch, store.MaxBatchOps)
	}
	r.opt = store.Options{Shards: *f.shards, Engine: r.engines[0], Lock: alg, MaxThreads: *f.clients + 2}
	r.scenario = workload.Scenario{
		Dist:      dist,
		Keys:      *f.keys,
		Mix:       mix,
		ValueSize: *f.value,
		ScanLimit: *f.scanLimit,
		Preload:   preload,
		Phases:    workload.RampSteady(*f.clients, *f.ops),
		Seed:      *f.seed,
		Batch:     batch,
		Pipeline:  pipeline,
	}
	return r, nil
}

// printRun writes a run's one-line description and its phases.
func printRun(w io.Writer, res harness.StackResult, transport string, sc workload.Scenario) {
	fmt.Fprintf(w, "%s over %s, %s keys, mix %s:\n", res.System, transport, sc.Dist.Name(), sc.Mix)
	for _, ph := range res.Phases {
		fmt.Fprintln(w, " ", ph)
	}
}

// oneResult shapes a single measurement into a harness result row.
func oneResult(experiment string, clients int, metric string, v float64) harness.Result {
	var o stats.Online
	o.Add(v)
	return harness.Result{
		Experiment: experiment,
		Platform:   harness.Native,
		Threads:    clients,
		Metric:     metric,
		Stats:      o.Summary(),
	}
}

// summaryResults shapes the steady-phase totals.
func summaryResults(experiment string, clients int, phases []workload.PhaseResult) []harness.Result {
	steady := phases[len(phases)-1]
	results := []harness.Result{oneResult(experiment, clients, "total Kops/s", steady.Kops())}
	if steady.Hits+steady.Misses > 0 {
		results = append(results, oneResult(experiment, clients, "hit %",
			100*float64(steady.Hits)/float64(steady.Hits+steady.Misses)))
	}
	return results
}

// partResults shapes the throughput of each shard or node over the
// whole run, one metric per part ("shard00 Kops/s", "node00 Kops/s").
func partResults(experiment string, clients int, part string, res harness.StackResult) []harness.Result {
	var results []harness.Result
	secs := res.Elapsed.Seconds()
	for i, n := range res.Ops {
		kops := 0.0
		if secs > 0 {
			kops = float64(n) / secs / 1e3
		}
		results = append(results, oneResult(experiment, clients, fmt.Sprintf("%s%02d Kops/s", part, i), kops))
	}
	return results
}

// lockAlgorithm resolves a case-insensitive algorithm name.
func lockAlgorithm(name string) (locks.Algorithm, error) {
	for _, alg := range locks.All {
		if strings.EqualFold(string(alg), name) {
			return alg, nil
		}
	}
	return "", fmt.Errorf("unknown lock algorithm %q (have %v)", name, locks.All)
}
