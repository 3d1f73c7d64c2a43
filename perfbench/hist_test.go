package main

import (
	"sort"
	"testing"
)

func TestHistQuantileWithinOneBucket(t *testing.T) {
	r := rng{s: 7}
	var h hist
	vals := make([]int64, 200000)
	for i := range vals {
		// Spread over five decades, like a latency distribution with a tail.
		v := int64(50 + r.below(1000))
		if r.below(100) == 0 {
			v *= int64(1 + r.below(10000))
		}
		vals[i] = v
		h.record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(vals[int(q*float64(len(vals)))-1])
		got := h.quantile(q)
		_, w := bucketRange(bucketOf(int64(exact)))
		if d := got - exact; d > w || d < -w {
			t.Errorf("q%.3f: got %.1f, exact %.0f, bucket width %.0f", q, got, exact, w)
		}
	}
}

func TestHistBucketsCoverValues(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 6_000, 1 << 20, 1<<36 + 12345} {
		i := bucketOf(v)
		lo, w := bucketRange(i)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d in bucket %d = [%.0f, %.0f)", v, i, lo, lo+w)
		}
		if w > lo/subCount+1 {
			t.Errorf("value %d: bucket width %.0f exceeds 1/%d of %.0f", v, w, subCount, lo)
		}
	}
}

func TestHistRecordAllocatesNothing(t *testing.T) {
	h := new(hist)
	v := int64(1)
	if a := testing.AllocsPerRun(1000, func() {
		h.record(v)
		v = v*3 + 1
	}); a != 0 {
		t.Fatalf("record allocates %.1f per call", a)
	}
}
