package main

import (
	"bytes"
	"fmt"
	"os"
)

// tally counts ops and failures. A failed op is an error, a hit whose
// value is not the key's payload, a miss (no key is ever deleted), or a
// put that created a key (every key is preloaded).
type tally struct {
	attempted, failed uint64
	firstErr          string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// checkGet records a get's outcome against key k's payload.
func (t *tally) checkGet(ks *keyspace, k int, v []byte, found bool, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.fail("get %s: %v", ks.keys[k], err)
	case !found:
		t.fail("get %s: miss on a preloaded key", ks.keys[k])
	case !bytes.Equal(v, ks.vals[k]):
		t.fail("get %s: wrong value", ks.keys[k])
	}
}

// checkPut records a put's outcome.
func (t *tally) checkPut(ks *keyspace, k int, created bool, err error) {
	t.attempted++
	switch {
	case err != nil:
		t.fail("put %s: %v", ks.keys[k], err)
	case created:
		t.fail("put %s: created a key that was preloaded", ks.keys[k])
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// report prints the first failure, if any, to standard error.
func (t *tally) report(name string) {
	if t.firstErr != "" {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed; first: %s\n", name, t.failed, t.attempted, t.firstErr)
	}
}

// sweep reads every key back through get after a run and checks it;
// each key counts as one attempted op.
func sweep(ks *keyspace, get func(key string) ([]byte, bool, error), t *tally) {
	for k, key := range ks.keys {
		v, ok, err := get(key)
		t.checkGet(ks, k, v, ok, err)
	}
}
