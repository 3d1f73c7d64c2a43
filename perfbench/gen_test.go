package main

import (
	"bytes"
	"testing"
)

func TestStreamSameSeedSameOps(t *testing.T) {
	for _, d := range []dist{uniform{n: 100000}, newZipf(100000, 0.99)} {
		a := newStream(42, 0, d, 10, 4096)
		b := newStream(42, 0, d, 10, 4096)
		c := newStream(43, 0, d, 10, 4096)
		o := newStream(42, 1, d, 10, 4096)
		same := func(x, y *stream) bool {
			for i := range x.ops {
				if x.ops[i] != y.ops[i] {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%T: same seed gave different streams", d)
		}
		if same(a, c) || same(a, o) {
			t.Errorf("%T: another seed or goroutine gave the same stream", d)
		}
	}
}

func TestStreamMixAndSkew(t *testing.T) {
	s := newStream(1, 0, newZipf(100000, 0.99), 50, 1<<18)
	puts, hot := 0, 0
	for _, o := range s.ops {
		if o.isPut() {
			puts++
		}
		if o.key() < 10 {
			hot++
		}
	}
	if frac := float64(puts) / float64(len(s.ops)); frac < 0.48 || frac > 0.52 {
		t.Errorf("put share %.3f, want 0.50", frac)
	}
	// Under θ=0.99 over 1e5 keys the ten hottest keys draw about a quarter.
	if frac := float64(hot) / float64(len(s.ops)); frac < 0.2 || frac > 0.3 {
		t.Errorf("top-10 share %.3f, want ~0.25", frac)
	}
}

func TestDrawAllocatesNothing(t *testing.T) {
	s := newStream(1, 0, uniform{n: 1000}, 10, 1024)
	var sink op
	if a := testing.AllocsPerRun(10000, func() { sink ^= s.next() }); a != 0 {
		t.Fatalf("next allocates %.1f per draw", a)
	}
	_ = sink
}

func TestPayloadIsAFunctionOfTheKey(t *testing.T) {
	ks := newKeyspace(100)
	if ks.keys[7] != "key-00000007" {
		t.Fatalf("key format: %q", ks.keys[7])
	}
	if !bytes.Equal(ks.vals[7], payload(7)) || bytes.Equal(ks.vals[7], ks.vals[8]) {
		t.Fatal("payloads are not per-key")
	}
}
