package main

import (
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"ssync/internal/stats"
)

// The benchmark's own mutation test: a seeded slowdown and a seeded
// extra allocation on the client's connection must move get_p50_us and
// allocs_per_op past the bounds BENCHMARK.json fixes, while two
// unmodified runs stay within them. As the benchmark itself is judged,
// each side is the median of several runs.

// faultConn delays every frame the client writes and allocates once per
// write. A lock-step client writes one frame per op.
type faultConn struct {
	net.Conn
	delay time.Duration
}

var faultSink []byte

func (c faultConn) Write(p []byte) (int, error) {
	for t0 := time.Now(); time.Since(t0) < c.delay; {
	}
	faultSink = make([]byte, 16)
	return c.Conn.Write(p)
}

func bounds(t *testing.T) map[string]float64 {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	b := map[string]float64{}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b
}

func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the point-lockstep workload nine times")
	}
	bound := bounds(t)
	ks := newKeyspace(nKeys)
	run := func(wrap func(net.Conn) net.Conn) summary {
		ss := []*stream{newStream(1, 0, uniform{n: nKeys}, 10, streamLen), newStream(1, 1, uniform{n: nKeys}, 10, streamLen)}
		b := newPointLockstep(ks, ss, wrap)
		defer b.close()
		s := b.run(2)
		if s.tally.failed != 0 {
			t.Fatalf("%d ops failed: %s", s.tally.failed, s.tally.firstErr)
		}
		return s
	}
	// Each round runs clean, faulted, clean, so drift in the host over
	// the test weighs on both sides of each comparison alike.
	const rounds = 3
	var base1, mut, base2 [2][]float64 // get_p50_us and allocs_per_op per run
	add := func(v *[2][]float64, s summary) {
		v[0] = append(v[0], s.getP50)
		v[1] = append(v[1], s.allocsPerOp)
	}
	for i := 0; i < rounds; i++ {
		add(&base1, run(nil))
		add(&mut, run(func(c net.Conn) net.Conn { return faultConn{Conn: c, delay: 3 * time.Microsecond} }))
		add(&base2, run(nil))
	}
	worse := func(parent, child float64) float64 { return (child - parent) / parent }
	for i, name := range []string{"get_p50_us", "allocs_per_op"} {
		a, b, mutated := stats.Median(base1[i]), stats.Median(base2[i]), stats.Median(mut[i])
		lim, ok := bound[name]
		if !ok {
			t.Fatalf("BENCHMARK.json has no bound for %s", name)
		}
		if d := worse(a, b); d > lim || -d > lim {
			t.Errorf("%s: unmodified runs differ by %.1f%% (%.3f vs %.3f), bound %.0f%%", name, 100*d, a, b, 100*lim)
		}
		for _, base := range []float64{a, b} {
			if d := worse(base, mutated); d <= lim {
				t.Errorf("%s: the fault moved it only %.1f%% (%.3f to %.3f), bound %.0f%%", name, 100*d, base, mutated, 100*lim)
			}
		}
	}
}
