package harness

import (
	"fmt"

	"ssync/internal/arch"
	"ssync/internal/bench"
	"ssync/internal/ccbench"
	"ssync/internal/simlocks"
)

// This file registers the simulated half of the suite: every experiment
// runs on the paper's machine models through internal/bench's per-cell
// runners, so one `ssync run` covers every simulated artifact that
// `ssync figures` prints as text.

// atLeast filters a thread grid to counts ≥ min (for experiments that
// need a minimum number of participants).
func atLeast(min int, grid []int) []int {
	var out []int
	for _, n := range grid {
		if n >= min {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{min}
	}
	return out
}

// model resolves a shard's platform to its machine model.
func model(s Shard) (*arch.Platform, error) {
	p := arch.ByName(s.Platform)
	if p == nil {
		return nil, fmt.Errorf("unknown platform %q (have %v)", s.Platform, arch.Names())
	}
	return p, nil
}

// lockExperiment defines a per-algorithm lock-throughput experiment over
// nLocks locks.
func lockExperiment(id, doc string, nLocks int) Def {
	return Def{
		ID: id, Doc: doc,
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, alg := range simlocks.Algorithms(p) {
				out = append(out, Sample{
					Metric: string(alg),
					Value:  bench.LockThroughput(p, alg, s.Threads, nLocks, s.Config),
				})
			}
			return out, nil
		},
	}
}

func init() {
	Register(lockExperiment("locks/single",
		"Figure 5: lock throughput, one lock (extreme contention), Mops/s per algorithm", 1))
	Register(lockExperiment("locks/many",
		"Figure 7: lock throughput, 512 locks (very low contention), Mops/s per algorithm", 512))

	Register(Def{
		ID:  "atomics/stress",
		Doc: "Figure 4: throughput of atomic operations on one location, Mops/s per primitive",
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, op := range []string{"CAS", "TAS", "CAS based FAI", "SWAP", "FAI"} {
				out = append(out, Sample{Metric: op, Value: bench.AtomicThroughput(p, op, s.Threads, s.Config)})
			}
			return out, nil
		},
	})

	Register(Def{
		ID:  "ticket/variants",
		Doc: "Figure 3: ticket-lock implementations on the Opteron, acquire+release cycles",
		On:  []string{"Opteron"},
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			variants := []struct {
				name string
				opt  simlocks.Options
			}{
				{string(bench.TicketNaive), simlocks.Options{}},
				{string(bench.TicketBackoff), simlocks.Options{TicketBackoff: true}},
				{string(bench.TicketPrefetchw), simlocks.Options{TicketBackoff: true, TicketPrefetchw: true}},
			}
			var out []Sample
			for _, v := range variants {
				out = append(out, Sample{Metric: v.name, Value: bench.TicketLatency(p, v.opt, s.Threads, s.Config)})
			}
			return out, nil
		},
	})

	Register(Def{
		ID:   "cc/latency",
		Doc:  "Tables 2–3: cache-coherence and local-access latencies, cycles",
		Grid: func(string) []int { return []int{2} },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, r := range ccbench.Table3(p) {
				out = append(out, Sample{Metric: "local " + r.Level, Value: float64(r.Cycles)})
			}
			reps := s.Config.Reps
			if reps <= 0 {
				reps = bench.DefaultConfig().Reps
			}
			for _, class := range ccbench.ReportClasses(p) {
				for _, op := range []arch.Op{arch.Load, arch.Store, arch.CAS} {
					r := ccbench.Run(p, ccbench.Case{Op: op, State: arch.Modified, Class: class}, reps)
					out = append(out, Sample{
						Metric: fmt.Sprintf("%v M %s", op, p.DistNames[class]),
						Value:  r.Cycles,
					})
				}
			}
			return out, nil
		},
	})

	Register(Def{
		ID:   "mp/pair",
		Doc:  "Figure 9: one-to-one message passing by distance, cycles",
		Grid: func(string) []int { return []int{2} },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			var out []Sample
			for _, r := range bench.Figure9(p, s.Config) {
				out = append(out,
					Sample{Metric: "one-way " + r.Class, Value: r.OneWay},
					Sample{Metric: "round-trip " + r.Class, Value: r.RoundTrip})
			}
			return out, nil
		},
	})

	Register(Def{
		ID:   "mp/clientserver",
		Doc:  "Figure 10: client-server message passing (threads = clients + 1 server), Mops/s",
		Grid: func(pn string) []int { return atLeast(2, DefaultThreads(pn)) },
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			if s.Threads < 2 {
				return nil, nil // needs one server and at least one client
			}
			ow, rt := bench.MPClientServer(p, s.Threads-1, s.Config)
			return []Sample{{Metric: "one-way", Value: ow}, {Metric: "round-trip", Value: rt}}, nil
		},
	})

	sshtExperiment := func(id, doc string, buckets, entries int) Def {
		return Def{
			ID: id, Doc: doc,
			Runner: func(s Shard) ([]Sample, error) {
				p, err := model(s)
				if err != nil {
					return nil, err
				}
				var out []Sample
				for _, alg := range simlocks.Algorithms(p) {
					out = append(out, Sample{
						Metric: string(alg),
						Value:  bench.SSHTLockThroughput(p, alg, s.Threads, buckets, entries, s.Config),
					})
				}
				out = append(out, Sample{
					Metric: "MP",
					Value:  bench.SSHTMPThroughput(p, s.Threads, buckets, entries, s.Config),
				})
				return out, nil
			},
		}
	}
	Register(sshtExperiment("ssht/high",
		"Figure 11: ssht hash table, 12 buckets × 12 entries (high contention), Mops/s", 12, 12))
	Register(sshtExperiment("ssht/low",
		"Figure 11: ssht hash table, 512 buckets × 12 entries (low contention), Mops/s", 512, 12))

	tmExperiment := func(id, doc string, stripes int) Def {
		return Def{
			ID: id, Doc: doc,
			Runner: func(s Shard) ([]Sample, error) {
				p, err := model(s)
				if err != nil {
					return nil, err
				}
				return []Sample{
					{Metric: "locks", Value: bench.TMLockThroughput(p, s.Threads, stripes, s.Config)},
					{Metric: "mp", Value: bench.TMMPThroughput(p, s.Threads, stripes, s.Config)},
				}, nil
			},
		}
	}
	Register(tmExperiment("tm/high", "§8 TM2C: 8 stripes (high contention), Mops/s", 8))
	Register(tmExperiment("tm/low", "§8 TM2C: 1024 stripes (low contention), Mops/s", 1024))

	kvsExperiment := func(id, doc string, get bool) Def {
		return Def{
			ID: id, Doc: doc,
			Grid: func(pn string) []int {
				if p := arch.ByName(pn); p != nil {
					return bench.Figure12Threads(p)
				}
				return DefaultThreads(pn)
			},
			Runner: func(s Shard) ([]Sample, error) {
				p, err := model(s)
				if err != nil {
					return nil, err
				}
				var out []Sample
				for _, alg := range bench.Figure12Algs {
					out = append(out, Sample{
						Metric: string(alg),
						Value:  bench.KVSThroughput(p, alg, s.Threads, get, s.Config),
					})
				}
				return out, nil
			},
		}
	}
	Register(kvsExperiment("kvs/set", "Figure 12: memcached-style set test, Kops/s per lock algorithm", false))
	Register(kvsExperiment("kvs/get", "§6.4 get test (lock-insensitive control), Kops/s per lock algorithm", true))

	Register(Def{
		ID:  "rcl/hot",
		Doc: "§7 Remote Core Locking: one hot critical section, best spin lock vs RCL, Mops/s",
		Runner: func(s Shard) ([]Sample, error) {
			p, err := model(s)
			if err != nil {
				return nil, err
			}
			best := 0.0
			for _, alg := range []simlocks.Alg{simlocks.TICKET, simlocks.CLH, simlocks.MCS} {
				if v := bench.LockThroughput(p, alg, s.Threads, 1, s.Config); v > best {
					best = v
				}
			}
			return []Sample{
				{Metric: "best-lock", Value: best},
				{Metric: "rcl", Value: bench.RCLThroughput(p, s.Threads, s.Config)},
			}, nil
		},
	})
}
