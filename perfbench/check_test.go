package main

import (
	"errors"
	"testing"
)

func TestTallyCountsEveryKindOfFailure(t *testing.T) {
	ks := newKeyspace(4)
	var tl tally
	tl.checkGet(ks, 0, ks.vals[0], true, nil)            // good hit
	tl.checkPut(ks, 0, false, nil)                       // good overwrite
	tl.checkGet(ks, 1, ks.vals[2], true, nil)            // wrong value
	tl.checkGet(ks, 1, nil, false, nil)                  // miss on a preloaded key
	tl.checkGet(ks, 1, nil, false, errors.New("broken")) // error
	tl.checkPut(ks, 3, true, nil)                        // put created a key
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", tl.attempted, tl.failed)
	}
	if tl.firstErr == "" {
		t.Fatal("first failure not kept")
	}
}

// A value corrupted inside the store is caught by the post-run sweep
// over the wire.
func TestSweepCountsACorruptedValue(t *testing.T) {
	ks := newKeyspace(1000)
	ss := []*stream{newStream(1, 0, uniform{n: 1000}, 10, 1024)}
	b := newPointLockstep(ks, ss, nil)
	defer b.close()
	var clean tally
	b.sweep(&clean)
	if clean.failed != 0 || clean.attempted != 1000 {
		t.Fatalf("clean sweep: %d of %d failed", clean.failed, clean.attempted)
	}
	bad := append([]byte(nil), ks.vals[17]...)
	bad[5] ^= 1
	b.st.NewHandle(0).Put(ks.keys[17], bad)
	var tl tally
	b.sweep(&tl)
	if tl.failed != 1 {
		t.Fatalf("corrupted value: %d failures counted, want 1 (%s)", tl.failed, tl.firstErr)
	}
}

// routed-batch's sweep reads through the batch path and catches a value
// corrupted on the owning member.
func TestRoutedSweepCountsACorruptedValue(t *testing.T) {
	ks := newKeyspace(1000)
	b := newRoutedBatch(ks, newGroups(ks, newStream(1, 0, uniform{n: 1000}, 5, 1024)))
	defer b.close()
	var clean tally
	b.sweep(&clean)
	if clean.failed != 0 || clean.attempted != 1000 {
		t.Fatalf("clean sweep: %d of %d failed", clean.failed, clean.attempted)
	}
	key := ks.keys[17]
	bad := append([]byte(nil), ks.vals[17]...)
	bad[5] ^= 1
	b.cl.Store(b.cl.Ring().Owner(key)).NewHandle(0).Put(key, bad)
	var tl tally
	b.sweep(&tl)
	if tl.failed != 1 {
		t.Fatalf("corrupted value: %d failures counted, want 1 (%s)", tl.failed, tl.firstErr)
	}
}
