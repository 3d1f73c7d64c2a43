// Package fixtures seeds poolaudit violations: pooled buffers escaping
// into fields, literals, channels, goroutines and returns, plus
// use-after-Put and use-after-recycle of a pooled pending or future —
// and the blessed ownership patterns that stay silent.
package fixtures

import "sync"

var bufPool = sync.Pool{New: func() any { return make([]byte, 512) }}

// session is a long-lived object; pinning per-call scratch into it is
// the seeded escape class.
type session struct {
	scratch []byte
}

// holder mirrors a response struct built from a pooled frame.
type holder struct {
	buf []byte
}

// frame is itself pooled; filling its own fields is ownership, not
// escape.
type frame struct {
	buf []byte
	n   int
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// attach stores the pooled buffer into a long-lived struct: the PR 8
// escape shape, where the pool hands the same bytes to the next caller
// while the session still reads them.
func (s *session) attach() {
	b := bufPool.Get().([]byte)
	s.scratch = b // want `pooled buffer stored into field scratch`
}

// leakLit captures the buffer in a composite literal that outlives the
// call.
func leakLit() *holder {
	b := bufPool.Get().([]byte)
	return &holder{buf: b} // want `pooled buffer stored into composite literal \(field buf\)`
}

// leakReturn hands the raw pooled bytes to an unmarked caller.
func leakReturn() []byte {
	return bufPool.Get().([]byte) // want `pooled buffer returned to the caller`
}

// leakSend publishes the buffer on a channel with no blessed hand-off.
func leakSend(ch chan []byte) {
	b := bufPool.Get().([]byte)
	ch <- b // want `pooled buffer sent on a channel`
}

// spawn lets a goroutine race the pool for the buffer.
func spawn() {
	b := bufPool.Get().([]byte)
	go func() {
		_ = b[0] // want `pooled buffer b captured by spawned goroutine`
	}()
}

// useAfterPut touches the buffer after releasing it.
func useAfterPut() {
	b := bufPool.Get().([]byte)
	b[0] = 1
	bufPool.Put(b)
	_ = b[0] // want `pooled buffer b used after its Put`
}

// getBuf is a trusted provider: callers' results are tracked exactly
// like pool.Get results.
//
//ssync:pooled
func getBuf() []byte {
	return bufPool.Get().([]byte)
}

// leakProvider shows provider results are not laundered: the escape is
// still caught one call away from the pool.
func leakProvider(s *session) {
	b := getBuf()
	s.scratch = b // want `pooled buffer stored into field scratch`
}

// roundTrip is the blessed fast path: get, fill, copy out, deferred
// release.
func roundTrip(raw []byte) []byte {
	b := getBuf()
	defer bufPool.Put(b)
	n := copy(b, raw)
	out := make([]byte, n)
	copy(out, b[:n])
	return out
}

// fill stores one pooled buffer into another pooled object's field:
// the owner assembling its own scratch, not an escape.
func fill(raw []byte) {
	f := framePool.Get().(*frame)
	b := bufPool.Get().([]byte)
	f.buf = b
	f.n = copy(f.buf, raw)
	bufPool.Put(b)
	framePool.Put(f)
}

// owner carries a pooled buffer across calls to a single release
// point; the constructor blesses the pin for its whole body.
type owner struct {
	buf []byte
}

// newOwner pins a pooled buffer for the owner's lifetime.
//
//ssync:ignore poolaudit owner carries the buffer until close, the single release point
func newOwner() *owner {
	return &owner{buf: bufPool.Get().([]byte)}
}

func (o *owner) close() {
	bufPool.Put(o.buf)
	o.buf = nil
}

// blessedSend is a documented blocking hand-off: the receiver releases.
func blessedSend(ch chan []byte) {
	b := bufPool.Get().([]byte)
	//ssync:ignore poolaudit blocking hand-off; the receiver is the single release point
	ch <- b
}

// pending mirrors a pooled in-flight op group whose Wait is its
// recycle point: the caller owns it from getPending until Wait, and
// must not touch it afterwards.
type pending struct {
	outcome int
}

// future mirrors a pooled per-node future.
type future struct {
	resp int
}

var (
	pendingPool = sync.Pool{New: func() any { return new(pending) }}
	futurePool  = sync.Pool{New: func() any { return new(future) }}
)

// getPending hands out a recycled pending.
//
//ssync:pooled
func getPending() *pending { return pendingPool.Get().(*pending) }

// Wait resolves the group and recycles the pending — a method recycler.
//
//ssync:pooled release the pending returns to its pool at Wait
func (p *pending) Wait() int {
	n := p.outcome
	pendingPool.Put(p)
	return n
}

// releaseFuture recycles a future — a function recycler.
//
//ssync:pooled release
func releaseFuture(f *future) { futurePool.Put(f) }

// useAfterWait is the seeded use-after-recycle: the pending is read
// after its Wait has handed it back to the pool.
func useAfterWait() int {
	p := getPending()
	n := p.Wait()
	return n + p.outcome // want `pooled buffer p used after its release by Wait`
}

// futureAfterRelease reads a future its recycler already released.
func futureAfterRelease() int {
	f := futurePool.Get().(*future)
	releaseFuture(f)
	return f.resp + 1 // want `pooled buffer f used after its release by releaseFuture`
}

// waitOnce is the blessed shape: everything the caller needs comes out
// of Wait, and the pending is not touched again.
func waitOnce() int {
	p := getPending()
	p.outcome++
	return p.Wait()
}
