package bench

import (
	"fmt"
	"sort"
	"strings"

	"ssync/internal/arch"
	"ssync/internal/ccbench"
	"ssync/internal/simlocks"
)

// This file renders experiment results as fixed-width text, the way
// `ssync figures` prints them.

// FormatFigure renders a figure as a table: one row per X, one column per
// series.
func FormatFigure(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", fig.Name, fig.Platform)
	fmt.Fprintf(&b, "%-10s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	b.WriteString("\n")
	xs := map[int]bool{}
	var order []int
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if !xs[pt.X] {
				xs[pt.X] = true
				order = append(order, pt.X)
			}
		}
	}
	sort.Ints(order)
	for _, x := range order {
		fmt.Fprintf(&b, "%-10d", x)
		for _, s := range fig.Series {
			fmt.Fprintf(&b, " %14.2f", s.At(x))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable2 renders the ccbench results like the paper's Table 2.
func FormatTable2(p *arch.Platform, reps int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — %s: coherence-transaction latencies (cycles)\n", p.Name)
	classes := ccbench.ReportClasses(p)
	fmt.Fprintf(&b, "%-8s %-10s", "op", "state")
	for _, c := range classes {
		fmt.Fprintf(&b, " %12s", p.DistNames[c])
	}
	b.WriteString("\n")

	row := func(op arch.Op, st arch.State) {
		fmt.Fprintf(&b, "%-8v %-10v", op, st)
		for _, class := range classes {
			r := ccbench.Run(p, ccbench.Case{Op: op, State: st, Class: class}, reps)
			fmt.Fprintf(&b, " %12.0f", r.Cycles)
		}
		b.WriteString("\n")
	}
	states := []arch.State{arch.Modified, arch.Owned, arch.Exclusive, arch.Shared, arch.Invalid}
	for _, st := range states {
		if st == arch.Owned && !p.IncompleteDirectory {
			continue
		}
		row(arch.Load, st)
	}
	for _, st := range states {
		if st == arch.Owned && !p.IncompleteDirectory {
			continue
		}
		row(arch.Store, st)
	}
	for _, op := range arch.AtomicOps {
		row(op, arch.Modified)
		row(op, arch.Shared)
	}
	return b.String()
}

// FormatTable3 renders the local-latency table.
func FormatTable3(p *arch.Platform) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — %s: local caches and memory latencies (cycles)\n", p.Name)
	for _, r := range ccbench.Table3(p) {
		fmt.Fprintf(&b, "  %-4s %6d\n", r.Level, r.Cycles)
	}
	return b.String()
}

// FormatFigure6 renders the uncontested-acquisition bars.
func FormatFigure6(p *arch.Platform, results []UncontestedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — %s: uncontested lock acquisition latency (cycles)\n", p.Name)
	// Group rows by class, columns by algorithm.
	classes := []string{}
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Class] {
			seen[r.Class] = true
			classes = append(classes, r.Class)
		}
	}
	algs := simlocks.Algorithms(p)
	fmt.Fprintf(&b, "%-14s", "holder at")
	for _, a := range algs {
		fmt.Fprintf(&b, " %9s", a)
	}
	b.WriteString("\n")
	for _, class := range classes {
		fmt.Fprintf(&b, "%-14s", class)
		for _, a := range algs {
			for _, r := range results {
				if r.Class == class && r.Alg == a {
					fmt.Fprintf(&b, " %9.0f", r.Cycles)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFigure8 renders the best-lock table with the paper's "X: Y"
// labels.
func FormatFigure8(p *arch.Platform, nLocks int, rows []BestLock) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — %s, %d locks: best lock and scalability\n", p.Name, nLocks)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %2d threads: %5.2fx %-8s %8.2f Mops/s\n", r.Threads, r.Scalability, r.Alg, r.Mops)
	}
	return b.String()
}

// FormatFigure9 renders the message-passing latency bars.
func FormatFigure9(p *arch.Platform, rows []MPLatency) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — %s: one-to-one message passing (cycles)\n", p.Name)
	fmt.Fprintf(&b, "  %-14s %10s %10s\n", "distance", "one-way", "round-trip")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %10.0f %10.0f\n", r.Class, r.OneWay, r.RoundTrip)
	}
	return b.String()
}

// FormatFigure11 renders one hash-table panel.
func FormatFigure11(p *arch.Platform, buckets, entries int, rows []SSHTResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — %s: ssht, %d buckets, %d entries/bucket\n", p.Name, buckets, entries)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %2d threads: best %5.2fx %-8s %8.2f Mops/s   mp %8.2f Mops/s\n",
			r.Threads, r.Scalability, r.BestAlg, r.BestMops, r.MPMops)
	}
	return b.String()
}

// FormatFigure12 renders the memcached set-test bars.
func FormatFigure12(p *arch.Platform, rows []KVSResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — %s: memcached-style set test (Kops/s)\n", p.Name)
	byAlg := map[simlocks.Alg][]KVSResult{}
	var algs []simlocks.Alg
	for _, r := range rows {
		if _, ok := byAlg[r.Alg]; !ok {
			algs = append(algs, r.Alg)
		}
		byAlg[r.Alg] = append(byAlg[r.Alg], r)
	}
	for _, a := range algs {
		fmt.Fprintf(&b, "  %-8s", a)
		for _, r := range byAlg[a] {
			fmt.Fprintf(&b, "  %2d: %8.1f", r.Threads, r.Kops)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  best non-mutex speed-up over MUTEX at 18 threads: %.0f%%\n", KVSSpeedup(rows)*100)
	return b.String()
}
