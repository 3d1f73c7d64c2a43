// Package bench defines one regeneration harness per table and figure of
// the paper's evaluation (§5–§6): the workload, the parameter sweep, the
// baselines and the output rows. `ssync figures` and the root-level
// testing.B benchmarks are thin wrappers over this package.
package bench

import (
	"fmt"
	"sort"

	"ssync/internal/arch"
	"ssync/internal/memsim"
	"ssync/internal/simlocks"
	"ssync/internal/xrand"
)

// Config scales the experiments: the deadline bounds the simulated cycles
// per configuration. Defaults suit `ssync figures`; tests use smaller
// values.
type Config struct {
	// Deadline is the simulated duration of each throughput measurement,
	// in cycles.
	Deadline uint64
	// LatencyOps is the number of operations timed in latency experiments.
	LatencyOps int
	// Reps is the repetition count for ccbench-style single-op cases.
	Reps int
}

// DefaultConfig returns the configuration `ssync figures` runs with.
func DefaultConfig() Config {
	return Config{Deadline: 400_000, LatencyOps: 200, Reps: 5}
}

// orDefault fills unset fields from DefaultConfig.
func (c Config) orDefault() Config {
	d := DefaultConfig()
	if c.Deadline == 0 {
		c.Deadline = d.Deadline
	}
	if c.LatencyOps == 0 {
		c.LatencyOps = d.LatencyOps
	}
	if c.Reps == 0 {
		c.Reps = d.Reps
	}
	return c
}

// Point is one measurement in a series.
type Point struct {
	X int     // usually the thread count
	Y float64 // usually Mops/s or cycles
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced figure: a set of series with axis labels.
type Figure struct {
	Name     string
	Platform string
	XLabel   string
	YLabel   string
	Series   []Series
}

// ThreadCounts returns the paper's x-axis thread counts for a platform,
// capped at the core count.
func ThreadCounts(p *arch.Platform) []int {
	var base []int
	switch p.Name {
	case "Opteron":
		base = []int{1, 2, 6, 12, 18, 24, 30, 36, 42, 48}
	case "Xeon":
		base = []int{1, 2, 10, 20, 30, 40, 50, 60, 70, 80}
	case "Niagara":
		base = []int{1, 2, 8, 16, 24, 32, 40, 48, 56, 64}
	case "Tilera":
		base = []int{1, 2, 6, 12, 18, 24, 30, 36}
	default:
		base = []int{1, 2, 4, p.NumCores}
	}
	var out []int
	for _, n := range base {
		if n <= p.NumCores {
			out = append(out, n)
		}
	}
	return out
}

// Figure8Threads returns the cross-platform thread counts of Figure 8/11
// (up to 36 cores for comparability).
func Figure8Threads(p *arch.Platform) []int {
	switch p.Name {
	case "Opteron":
		return []int{1, 6, 18, 36}
	case "Xeon":
		return []int{1, 10, 18, 36}
	default:
		return []int{1, 8, 18, 36}
	}
}

// lockRun measures total lock-acquisition throughput in Mops/s: nThreads
// threads each repeatedly acquire a (random) lock out of nLocks, read and
// write one cache line of data it protects, release, and pause briefly
// (§6.1.2 methodology).
func lockRun(p *arch.Platform, alg simlocks.Alg, nThreads, nLocks int, cfg Config) float64 {
	cfg = cfg.orDefault()
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	node := p.NodeOf(cores[0]) // shared data on the first participating node
	opt := simlocks.DefaultOptions(p)
	locks := make([]simlocks.Lock, nLocks)
	data := make([]memsim.Addr, nLocks)
	for i := range locks {
		locks[i] = simlocks.New(m, alg, node, opt)
		data[i] = m.AllocLine(node)
	}
	// Warm-up: the paper's runs last seconds, so every lock and data line
	// is long since cached. Ops before the warm-up horizon are discarded;
	// the horizon scales with the lock count so even a single thread has
	// touched the whole working set (cold misses would otherwise depress
	// the 1-thread baseline and inflate the scalability labels).
	warmup := uint64(nLocks) * 1200 / uint64(nThreads)
	if warmup > 1_200_000 {
		warmup = 1_200_000
	}
	if warmup < 10_000 {
		warmup = 10_000
	}
	m.SetDeadline(warmup + cfg.Deadline)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*2654435761 + 12345)
		m.Spawn(c, func(t *memsim.Thread) {
			// Random start stagger: threads never begin in lock-step, so
			// the steady-state service order at hot lines is a random,
			// socket-mixed permutation rather than core-id order.
			t.Pause(rng.Uint64() % 4096)
			for !t.Done() {
				i := 0
				if nLocks > 1 {
					i = rng.Intn(nLocks)
				}
				locks[i].Acquire(t)
				v := t.Load(data[i])
				t.Store(data[i], v+1)
				locks[i].Release(t)
				if t.Now() > warmup {
					ops[ti]++
				}
				// Let the release become globally visible before retrying
				// (paper §6.1.2).
				t.Pause(100)
			}
		})
	}
	cycles := m.Run()
	var total uint64
	for _, o := range ops {
		total += o
	}
	if cycles <= warmup {
		return 0
	}
	return p.MopsFrom(total, cycles-warmup)
}

// LockThroughput exposes the lock throughput runner for examples and
// benches.
func LockThroughput(p *arch.Platform, alg simlocks.Alg, nThreads, nLocks int, cfg Config) float64 {
	return lockRun(p, alg, nThreads, nLocks, cfg)
}

// Figure5 reproduces "Throughput of different lock algorithms using a
// single lock" (extreme contention).
func Figure5(p *arch.Platform, cfg Config) Figure {
	return lockFigure(p, cfg, 1, "Figure 5: single lock (extreme contention)")
}

// Figure7 reproduces "Throughput of different lock algorithms using 512
// locks" (very low contention).
func Figure7(p *arch.Platform, cfg Config) Figure {
	return lockFigure(p, cfg, 512, "Figure 7: 512 locks (very low contention)")
}

func lockFigure(p *arch.Platform, cfg Config, nLocks int, name string) Figure {
	fig := Figure{
		Name:     name,
		Platform: p.Name,
		XLabel:   "threads",
		YLabel:   "throughput (Mops/s)",
	}
	for _, alg := range simlocks.Algorithms(p) {
		s := Series{Label: string(alg)}
		for _, n := range ThreadCounts(p) {
			s.Points = append(s.Points, Point{X: n, Y: lockRun(p, alg, n, nLocks, cfg)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// BestLock is one Figure 8 cell: the best-performing lock at a thread
// count, its throughput and the scalability vs single-threaded execution.
type BestLock struct {
	Threads     int
	Alg         simlocks.Alg
	Mops        float64
	Scalability float64 // the paper's "X:" label
}

// Figure8 reproduces "Throughput and scalability of locks depending on the
// number of locks" for one platform and lock count (4, 16, 32 or 128).
func Figure8(p *arch.Platform, nLocks int, cfg Config) []BestLock {
	single := make(map[simlocks.Alg]float64)
	var out []BestLock
	for _, n := range Figure8Threads(p) {
		best := BestLock{Threads: n, Mops: -1}
		for _, alg := range simlocks.Algorithms(p) {
			mops := lockRun(p, alg, n, nLocks, cfg)
			if n == 1 {
				single[alg] = mops
			}
			if mops > best.Mops {
				best.Alg = alg
				best.Mops = mops
			}
		}
		// Scalability is relative to the single-thread throughput of the
		// *best single-thread* lock, as the paper normalises per platform.
		if n == 1 {
			best.Scalability = 1
		} else {
			bestSingle := 0.0
			for _, v := range single {
				if v > bestSingle {
					bestSingle = v
				}
			}
			if bestSingle > 0 {
				best.Scalability = best.Mops / bestSingle
			}
		}
		out = append(out, best)
	}
	return out
}

// UncontestedResult is one Figure 6 bar: the latency to acquire a lock
// whose previous holder sits at the given distance.
type UncontestedResult struct {
	Alg    simlocks.Alg
	Class  string // "single thread" or a platform distance-class name
	Cycles float64
}

// Figure6 reproduces "Uncontested lock acquisition latency based on the
// location of the previous owner of the lock".
func Figure6(p *arch.Platform, cfg Config) []UncontestedResult {
	cfg = cfg.orDefault()
	var out []UncontestedResult
	for _, alg := range simlocks.Algorithms(p) {
		out = append(out, UncontestedResult{
			Alg: alg, Class: "single thread",
			Cycles: uncontestedSingle(p, alg, cfg),
		})
		for _, class := range uncontestedClasses(p) {
			out = append(out, UncontestedResult{
				Alg: alg, Class: p.DistNames[class],
				Cycles: uncontestedPair(p, alg, class, cfg),
			})
		}
	}
	return out
}

// uncontestedClasses lists the previous-holder placements of Figure 6.
func uncontestedClasses(p *arch.Platform) []int {
	if p.Name == "Tilera" {
		return []int{1, 10}
	}
	classes := make([]int, p.NumClasses())
	for i := range classes {
		classes[i] = i
	}
	return classes
}

// uncontestedSingle measures one thread repeatedly acquiring and releasing.
func uncontestedSingle(p *arch.Platform, alg simlocks.Alg, cfg Config) float64 {
	m := memsim.New(p)
	l := simlocks.New(m, alg, p.NodeOf(0), simlocks.DefaultOptions(p))
	var total uint64
	m.Spawn(0, func(t *memsim.Thread) {
		l.Acquire(t) // warm up the lock state
		l.Release(t)
		start := t.Now()
		for i := 0; i < cfg.LatencyOps; i++ {
			l.Acquire(t)
			l.Release(t)
		}
		total = t.Now() - start
	})
	m.Run()
	return float64(total) / float64(cfg.LatencyOps)
}

// uncontestedPair measures acquisition latency when the previous holder is
// at the given distance class: the two threads strictly alternate.
func uncontestedPair(p *arch.Platform, alg simlocks.Alg, class int, cfg Config) float64 {
	m := memsim.New(p)
	a := 0
	b := pickAtClass(p, a, class)
	if b < 0 {
		return 0
	}
	l := simlocks.New(m, alg, p.NodeOf(a), simlocks.DefaultOptions(p))
	turn := m.AllocLine(p.NodeOf(a))
	var totalB uint64
	rounds := cfg.LatencyOps
	m.Spawn(a, func(t *memsim.Thread) {
		for i := 0; i < rounds; i++ {
			t.WaitUntil(turn, func(v uint64) bool { return v%2 == 0 })
			l.Acquire(t)
			l.Release(t)
			t.Store(turn, t.Load(turn)+1)
		}
	})
	m.Spawn(b, func(t *memsim.Thread) {
		for i := 0; i < rounds; i++ {
			t.WaitUntil(turn, func(v uint64) bool { return v%2 == 1 })
			start := t.Now()
			l.Acquire(t)
			totalB += t.Now() - start
			l.Release(t)
			t.Store(turn, t.Load(turn)+1)
		}
	})
	m.Run()
	return float64(totalB) / float64(rounds)
}

func pickAtClass(p *arch.Platform, from, class int) int {
	for c := 0; c < p.NumCores; c++ {
		if c != from && p.DistClass(from, c) == class {
			return c
		}
	}
	return -1
}

// Figure3Variant names the three ticket-lock implementations of Figure 3.
type Figure3Variant string

// The Figure 3 implementations.
const (
	TicketNaive     Figure3Variant = "non-optimized"
	TicketBackoff   Figure3Variant = "back-off"
	TicketPrefetchw Figure3Variant = "back-off & prefetchw"
)

// Figure3 reproduces "Latency of acquire and release using different
// implementations of a ticket lock on the Opteron": per-operation latency
// (queue wait included) against the thread count.
func Figure3(cfg Config) Figure {
	cfg = cfg.orDefault()
	p := arch.Opteron()
	fig := Figure{
		Name:     "Figure 3: ticket lock implementations (Opteron)",
		Platform: p.Name,
		XLabel:   "threads",
		YLabel:   "acquire+release latency (cycles)",
	}
	variants := []struct {
		name Figure3Variant
		opt  simlocks.Options
	}{
		{TicketNaive, simlocks.Options{}},
		{TicketBackoff, simlocks.Options{TicketBackoff: true}},
		{TicketPrefetchw, simlocks.Options{TicketBackoff: true, TicketPrefetchw: true}},
	}
	for _, v := range variants {
		s := Series{Label: string(v.name)}
		for _, n := range ThreadCounts(p) {
			s.Points = append(s.Points, Point{X: n, Y: ticketLatency(p, v.opt, n, cfg)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// ticketLatency measures the mean acquire+release latency (including queue
// wait) over all threads hammering one ticket lock.
func ticketLatency(p *arch.Platform, opt simlocks.Options, nThreads int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	l := simlocks.New(m, simlocks.TICKET, 0, opt)
	m.SetDeadline(cfg.Deadline)
	cores := p.PlaceThreads(nThreads)
	lat := make([]uint64, nThreads)
	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*52021 + 11)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for !t.Done() {
				start := t.Now()
				l.Acquire(t)
				l.Release(t)
				lat[ti] += t.Now() - start
				ops[ti]++
				t.Pause(100)
			}
		})
	}
	m.Run()
	var totalLat, totalOps uint64
	for i := range lat {
		totalLat += lat[i]
		totalOps += ops[i]
	}
	if totalOps == 0 {
		return 0
	}
	return float64(totalLat) / float64(totalOps)
}

// Figure4 reproduces "Throughput of different atomic operations on a
// single memory location". CAS-FAI is a fetch-and-increment emulated with
// a CAS retry loop.
func Figure4(p *arch.Platform, cfg Config) Figure {
	cfg = cfg.orDefault()
	fig := Figure{
		Name:     "Figure 4: atomic operations on one location",
		Platform: p.Name,
		XLabel:   "threads",
		YLabel:   "throughput (Mops/s)",
	}
	for _, op := range []string{"CAS", "TAS", "CAS based FAI", "SWAP", "FAI"} {
		s := Series{Label: op}
		for _, n := range ThreadCounts(p) {
			s.Points = append(s.Points, Point{X: n, Y: atomicStress(p, op, n, cfg)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// atomicStress implements the §5.4 stress test: each thread repeatedly
// performs the operation on one shared location, pausing between calls
// proportionally to the maximum latency across the involved cores so that
// no thread completes consecutive operations locally ("long runs").
func atomicStress(p *arch.Platform, opName string, nThreads int, cfg Config) float64 {
	m := memsim.New(p)
	m.Opt.CostJitter = 0.15
	cores := p.PlaceThreads(nThreads)
	target := m.AllocLine(p.NodeOf(cores[0]))
	m.SetDeadline(cfg.Deadline)

	// Pause proportional to the maximum latency across the involved cores.
	span := 0
	for _, c := range cores {
		if d := p.DistClass(cores[0], c); d > span {
			span = d
		}
	}
	pause := p.Lat(arch.CAS, arch.Modified, span)
	if nThreads == 1 {
		pause = p.AtomicLocal
	}

	ops := make([]uint64, nThreads)
	for ti, c := range cores {
		ti := ti
		rng := xrand.New(uint64(ti)*76493 + 5)
		m.Spawn(c, func(t *memsim.Thread) {
			t.Pause(rng.Uint64() % 4096) // de-lockstep the service order
			for !t.Done() {
				switch opName {
				case "CAS":
					t.CAS(target, 0, uint64(ti)+1) // mostly unsuccessful
				case "TAS":
					t.TAS(target)
				case "CAS based FAI":
					// cmpxchg retry loop: the failed CAS returns the fresh
					// value, so no reload is needed between attempts.
					v := t.Load(target)
					for {
						prev, ok := t.CASVal(target, v, v+1)
						if ok || t.Done() {
							break
						}
						v = prev
					}
				case "SWAP":
					t.Swap(target, uint64(ti))
				case "FAI":
					t.FAI(target)
				}
				ops[ti]++
				// Jitter the pause: identical pauses would grant the line
				// in core-id order, an artificial socket affinity no real
				// arbiter provides.
				t.Pause(pause + rng.Uint64()%(pause/2+1))
			}
		})
	}
	cycles := m.Run()
	var total uint64
	for _, o := range ops {
		total += o
	}
	return p.MopsFrom(total, cycles)
}

// BestSeries extracts, for each X, the maximum Y across all series of a
// figure (the paper's "highest throughput achieved by any of the locks").
func BestSeries(fig Figure) Series {
	byX := map[int]float64{}
	var xs []int
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if v, ok := byX[pt.X]; !ok || pt.Y > v {
				if !ok {
					xs = append(xs, pt.X)
				}
				byX[pt.X] = pt.Y
			}
		}
	}
	sort.Ints(xs)
	out := Series{Label: "best of " + fig.Platform}
	for _, x := range xs {
		out.Points = append(out.Points, Point{X: x, Y: byX[x]})
	}
	return out
}

// FindSeries returns the series with the given label, or nil.
func FindSeries(fig Figure, label string) *Series {
	for i := range fig.Series {
		if fig.Series[i].Label == label {
			return &fig.Series[i]
		}
	}
	return nil
}

// At returns the Y value at x in a series (0 if absent).
func (s Series) At(x int) float64 {
	for _, pt := range s.Points {
		if pt.X == x {
			return pt.Y
		}
	}
	return 0
}

func (s Series) String() string {
	out := s.Label + ":"
	for _, pt := range s.Points {
		out += fmt.Sprintf(" (%d, %.2f)", pt.X, pt.Y)
	}
	return out
}
