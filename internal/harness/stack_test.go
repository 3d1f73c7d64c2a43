package harness

import (
	"reflect"
	"strings"
	"testing"

	"ssync/internal/store"
	"ssync/internal/workload"
)

// TestStackMetricLabels pins the metric labels, in order, of every
// serving-stack experiment family: a refactor of the runners must not
// rename, drop or reorder a row. TestEverySuiteExperimentRuns checks
// only that samples are well-formed.
func TestStackMetricLabels(t *testing.T) {
	direct := []string{"direct Kops/s", "wire Kops/s"}
	families := []struct {
		prefix string
		want   []string
	}{
		{"store/", direct},
		{"store-engine/", direct},
		{"store-pipe/", []string{"d01×b01 Kops/s", "d16×b01 Kops/s", "d01×b08 Kops/s", "d16×b08 Kops/s"}},
		{"cluster/", []string{"uniform Kops/s", "zipfian Kops/s"}},
		{"place/", []string{
			"none/uniform Kops/s", "none/zipfian(0.99) Kops/s",
			"compact/uniform Kops/s", "compact/zipfian(0.99) Kops/s",
			"scatter/uniform Kops/s", "scatter/zipfian(0.99) Kops/s",
		}},
		{"migrate/", []string{"steady Kops/s", "dip %", "recovery ms", "add ms", "remove ms"}},
	}
	for _, f := range families {
		n := 0
		for _, e := range Default.Experiments() {
			if !strings.HasPrefix(e.Name(), f.prefix) || e.Name() == "place/model" {
				continue
			}
			n++
			e, want := e, f.want
			t.Run(e.Name(), func(t *testing.T) {
				samples, err := e.Run(Shard{Platform: Native, Threads: 2, Config: tiny})
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, s := range samples {
					got = append(got, s.Metric)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metric labels\n got %q\nwant %q", got, want)
				}
			})
		}
		if n == 0 {
			t.Errorf("no %s experiments registered", f.prefix)
		}
	}
}

// TestRunStackAccounting: with a get/put mix every op touches exactly
// one shard, so the per-shard (or per-node) deltas RunStack reports
// must sum to exactly the ops its phases completed — on every engine
// and transport, and with the preload left out.
func TestRunStackAccounting(t *testing.T) {
	transports := []struct {
		name string
		spec StackSpec
	}{
		{"local", StackSpec{Local: true}},
		{"lockstep", StackSpec{}},
		{"async-b4xp4", StackSpec{Window: 4}},
		{"cluster-2", StackSpec{Nodes: 2, Window: 4}},
	}
	for _, eng := range store.Engines {
		for _, tr := range transports {
			eng, sp := eng, tr.spec
			t.Run(string(eng)+"/"+tr.name, func(t *testing.T) {
				sp.Store = store.Options{Shards: 4, Engine: eng}
				sp.Scenario = workload.Scenario{
					Keys:    512,
					Mix:     workload.Mix{Get: 70, Put: 30},
					Preload: 256,
					Phases:  workload.RampSteady(2, 300),
					Seed:    7,
				}
				if sp.Window > 0 {
					sp.Scenario.Batch, sp.Scenario.Pipeline = 4, 4
				}
				res, err := RunStack(sp)
				if err != nil {
					t.Fatal(err)
				}
				parts := sp.Store.Shards
				if sp.Nodes > 0 {
					parts = sp.Nodes
				}
				if len(res.Ops) != parts {
					t.Fatalf("%d op counts, want %d", len(res.Ops), parts)
				}
				var served, completed uint64
				for _, n := range res.Ops {
					served += n
				}
				for _, ph := range res.Phases {
					completed += ph.Ops
				}
				if served != completed || completed == 0 {
					t.Fatalf("shards/nodes served %d ops, phases completed %d", served, completed)
				}
				if res.Elapsed <= 0 || res.System == "" {
					t.Fatalf("elapsed %v, system %q", res.Elapsed, res.System)
				}
			})
		}
	}
}
