package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"ssync/internal/stats"
)

// window is the length of one measurement window. A steady-state run
// reports the median over its windows of each window's throughput and
// latency percentiles, so one stall (a GC, a descheduled goroutine)
// moves one window instead of the whole figure.
const window = 500 * time.Millisecond

// warmWindows are discarded before measuring: pools fill, the heap
// reaches its steady size and the GC pacer settles.
const warmWindows = 2

// clock stamps events in ns since a phase began, on the monotonic clock.
type clock struct{ t0 time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

// loadStats is one load goroutine's record: completed ops and latency
// histograms per window, and its result tally. The padding keeps two
// goroutines' tallies, written on every op, off a shared cache line.
type loadStats struct {
	ops      []uint64
	get, put []hist
	tally
	_ [64]byte
}

func newLoadStats(nwin int) *loadStats {
	return &loadStats{ops: make([]uint64, nwin), get: make([]hist, nwin), put: make([]hist, nwin)}
}

func (s *loadStats) record(w int, put bool, d int64) {
	if put {
		s.put[w].record(d)
	} else {
		s.get[w].record(d)
	}
}

// timeWindows maps a phase timestamp to its window, clamping the tail
// into the last (discarded) slot.
func timeWindows(nwin int) func(t int64) int {
	return func(t int64) int {
		w := int(t / int64(window))
		if w >= nwin {
			w = nwin - 1
		}
		return w
	}
}

// closedLoop is one load goroutine: it runs exec over its stream until
// stop, timing every sample-th op. exec performs and checks one op;
// after, when non-nil, is called with the n-th op's timestamps and
// window after every timed op.
func closedLoop(c *clock, s *stream, st *loadStats, winOf func(int64) int, stop *atomic.Bool, sample int, exec func(o op), after func(n uint64, t0, t1 int64, w int)) {
	w := 0
	for n := uint64(0); !stop.Load(); n++ {
		o := s.next()
		if n%uint64(sample) == 0 {
			t0 := c.now()
			exec(o)
			t1 := c.now()
			w = winOf(t1)
			st.record(w, o.isPut(), t1-t0)
			if after != nil {
				after(n, t0, t1, w)
			}
		} else {
			exec(o)
		}
		st.ops[w]++
	}
}

// runtimeSample is what the measured phase reads from the runtime at
// its two ends.
type runtimeSample struct {
	mallocs, numGC uint64
	gcCPU, allCPU  float64
	at             time.Time
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return runtimeSample{
		mallocs: ms.Mallocs, numGC: uint64(ms.NumGC),
		gcCPU: cpuMetrics[0].Value.Float64(), allCPU: cpuMetrics[1].Value.Float64(),
		at: time.Now(),
	}
}

// phase is one measured phase's raw record.
type phase struct {
	stats      []*loadStats
	from, to   int // measured windows
	r0, r1     runtimeSample
	measuredOp uint64 // ops completed in the measured windows
}

// runPhase starts one goroutine per loader, discards the warm-up
// windows, measures for dur, then stops the loaders and waits for them.
// A loader runs until stop is set.
func runPhase(c *clock, dur time.Duration, stats []*loadStats, loaders []func(stop *atomic.Bool)) phase {
	var stop atomic.Bool
	var wg sync.WaitGroup
	c.t0 = time.Now()
	for _, l := range loaders {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			l(&stop)
		}()
	}
	sleepUntil(c, warmWindows*window)
	p := phase{stats: stats, from: warmWindows, to: warmWindows + int(dur/window)}
	p.r0 = readRuntime()
	sleepUntil(c, time.Duration(p.to)*window)
	p.r1 = readRuntime()
	stop.Store(true)
	wg.Wait()
	for _, s := range stats {
		for w := p.from; w < p.to; w++ {
			p.measuredOp += s.ops[w]
		}
	}
	return p
}

func sleepUntil(c *clock, t time.Duration) {
	if d := t - time.Duration(c.now()); d > 0 {
		time.Sleep(d)
	}
}

// summary is the end-to-end view of a phase. Latencies are in µs.
type summary struct {
	kops                   float64
	getP50, getP90, getP99 float64
	putP50, putP90, putP99 float64
	gets, puts             uint64 // latency samples
	allocsPerOp            float64
	gcPerS, gcCPUPct       float64
	tally                  tally
}

// summarize reports the median over the measured windows of each
// window's throughput and percentiles.
func (p phase) summarize() summary {
	var s summary
	var kops []float64
	var get, put [3][]float64 // per-window p50, p90, p99
	qs := [3]float64{0.5, 0.9, 0.99}
	for w := p.from; w < p.to; w++ {
		var ops uint64
		var g, pu hist
		for _, st := range p.stats {
			ops += st.ops[w]
			g.merge(&st.get[w])
			pu.merge(&st.put[w])
		}
		kops = append(kops, float64(ops)/window.Seconds()/1e3)
		for i, q := range qs {
			get[i] = append(get[i], g.quantile(q)/1e3)
			put[i] = append(put[i], pu.quantile(q)/1e3)
		}
		s.gets += g.n
		s.puts += pu.n
	}
	s.kops = stats.Median(kops)
	s.getP50, s.getP90, s.getP99 = stats.Median(get[0]), stats.Median(get[1]), stats.Median(get[2])
	s.putP50, s.putP90, s.putP99 = stats.Median(put[0]), stats.Median(put[1]), stats.Median(put[2])
	p.runtimeInto(&s, p.measuredOp)
	for _, st := range p.stats {
		s.tally.add(&st.tally)
	}
	return s
}

// runtimeInto fills the allocation and GC figures over the measured
// phase; every allocation in the process counts, including the load
// goroutines' own (none, by construction).
func (p phase) runtimeInto(s *summary, ops uint64) {
	if ops > 0 {
		s.allocsPerOp = float64(p.r1.mallocs-p.r0.mallocs) / float64(ops)
	}
	secs := p.r1.at.Sub(p.r0.at).Seconds()
	s.gcPerS = float64(p.r1.numGC-p.r0.numGC) / secs
	if cpu := p.r1.allCPU - p.r0.allCPU; cpu > 0 {
		s.gcCPUPct = 100 * (p.r1.gcCPU - p.r0.gcCPU) / cpu
	}
}
