// Command perfbench is the serving-stack benchmark. One invocation
// builds one workload from a seed, measures it for a fixed time, checks
// every result, and prints its metrics; see DESIGN.md and
// ../BENCHMARK.json.
//
//	perfbench --workload point-lockstep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 the per-layer metrics of a traced run. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a run builds its workload's system;
// setup_s is the median, and the last build is the one measured.
const setupReps = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's named metrics.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "point-lockstep, routed-batch or direct-hot")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (the traced run splits them into untraced, traced and untraced phases)")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if *seconds < 3 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 3 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := runBench(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func runBench(name string, seed uint64, seconds int, traced bool) (result, error) {
	w, err := build(name, seed)
	if err != nil {
		return result{}, err
	}
	defer w.b.close()
	m := metricSet{}
	var t tally
	if !traced {
		s := w.b.run(seconds)
		t.add(&s.tally)
		m.set("setup_s", w.setup.Seconds(), "s")
		m.set("kops", s.kops, "kops/s")
		m.set("get_p50_us", s.getP50, "us")
		m.set("get_p90_us", s.getP90, "us")
		m.set("put_p50_us", s.putP50, "us")
		m.set("put_p90_us", s.putP90, "us")
		m.set("allocs_per_op", s.allocsPerOp, "allocs/op")
		m.set("space_amp", w.spaceAmp, "ratio")
		fmt.Printf("# %s seed %d: %d get and %d put latency samples; get p99 %.2f us, put p99 %.2f us; %.2f GCs/s; fail_ratio %g\n",
			name, seed, s.gets, s.puts, s.getP99, s.putP99, s.gcPerS, failRatio(&s.tally))
	} else {
		// Untraced, traced, untraced: the traced phase sits between the
		// two untraced ones, so drift in the host over the run weighs on
		// both sides of the overhead alike.
		third := seconds / 3
		before := w.b.run(third)
		tr := w.b.traced(seconds-2*third, m)
		after := w.b.run(third)
		for _, s := range []*summary{&before, &tr, &after} {
			t.add(&s.tally)
		}
		plain := (before.kops + after.kops) / 2
		m.set("runtime.gc_per_s", (before.gcPerS+after.gcPerS)/2, "1/s")
		m.set("runtime.gc_cpu_pct", (before.gcCPUPct+after.gcCPUPct)/2, "%")
		m.set("trace.overhead_pct", 100*(plain-tr.kops)/plain, "%")
		start := time.Now()
		w.b.fillIn(m, &t)
		ladder(w.ks, w.b.ops(), m, name != "direct-hot", name == "routed-batch")
		fmt.Printf("# %s seed %d: untraced %.1f and %.1f kops/s around traced %.1f kops/s, probes and ladder %.1fs\n",
			name, seed, before.kops, after.kops, tr.kops, time.Since(start).Seconds())
	}
	w.b.sweep(&t)
	t.report(name)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func failRatio(t *tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
