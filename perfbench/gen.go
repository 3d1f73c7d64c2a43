package main

import (
	"fmt"
	"math"
	"math/bits"
)

// The input generator. Everything the timed loops touch is built here at
// set-up: key strings, the payload every key must hold, and op streams
// drawn from the seed. Drawing an op in a timed loop is an index into a
// prebuilt slice, so no key formatting, random draw or allocation from
// the workload driver lands inside a measured span.

const (
	valueLen  = 64
	streamLen = 1 << 20 // ops per load goroutine before the stream repeats
)

// rng is splitmix64: tiny, seedable, and owned by the benchmark so a
// change to the repository's own generators cannot change the inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform draw in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// keyspace holds the n keys `key-%08d` and each key's 64-byte payload.
// The payload is a pure function of the key index, so any value read
// back can be checked against it.
type keyspace struct {
	keys []string
	vals [][]byte
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{keys: make([]string, n), vals: make([][]byte, n)}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("key-%08d", i)
		ks.vals[i] = payload(i)
	}
	return ks
}

// payload derives key i's value.
func payload(i int) []byte {
	r := rng{s: uint64(i) * 0x2545f4914f6cdd1d}
	v := make([]byte, valueLen)
	for j := 0; j < valueLen; j += 8 {
		x := r.next()
		for k := 0; k < 8; k++ {
			v[j+k] = byte(x >> (8 * k))
		}
	}
	return v
}

// userBytes is the key plus value bytes the keyspace stores.
func (ks *keyspace) userBytes() int {
	n := 0
	for i, k := range ks.keys {
		n += len(k) + len(ks.vals[i])
	}
	return n
}

// op is one drawn operation: a key index, with the top bit set for a
// put. Puts write the key's own payload, so every later get stays
// checkable and no put creates a key.
type op uint32

const putBit op = 1 << 31

func (o op) key() int    { return int(o &^ putBit) }
func (o op) isPut() bool { return o&putBit != 0 }
func mkop(k int, put bool) op {
	if put {
		return op(k) | putBit
	}
	return op(k)
}

// dist draws key indices.
type dist interface{ draw(r *rng) int }

type uniform struct{ n uint64 }

func (u uniform) draw(r *rng) int { return int(r.below(u.n)) }

// zipf is the YCSB zipfian generator (Gray et al.): key 0 is the hottest.
type zipf struct {
	n                   uint64
	theta, alpha, eta   float64
	zetan, halfPowTheta float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipf{
		n: uint64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return int(k)
}

// stream is one load goroutine's prebuilt op sequence; next cycles it.
type stream struct {
	ops []op
	i   int
}

// newStream draws n ops with putPct percent puts. Stream j of a run is
// drawn from seed and j, so the same seed gives every goroutine the same
// sequence on every run.
func newStream(seed uint64, j int, d dist, putPct uint64, n int) *stream {
	r := rng{s: seed*0x9e3779b97f4a7c15 + uint64(j+1)*0xd1b54a32d192ed03}
	s := &stream{ops: make([]op, n)}
	for i := range s.ops {
		k := d.draw(&r)
		s.ops[i] = mkop(k, r.below(100) < putPct)
	}
	return s
}

func (s *stream) next() op {
	o := s.ops[s.i]
	s.i++
	if s.i == len(s.ops) {
		s.i = 0
	}
	return o
}
