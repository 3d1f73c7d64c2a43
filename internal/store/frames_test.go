package store

import (
	"net"
	"sync/atomic"
	"testing"

	"ssync/internal/locks"
	"ssync/internal/workload"
)

// frameCountConn counts the length-prefixed frames written through it,
// however the writer's buffer splits them across Write calls.
type frameCountConn struct {
	net.Conn
	frames *atomic.Uint64
	hdr    int    // header bytes seen of the frame being written
	n      uint32 // its length, as far as seen
	body   int    // body bytes still to come
}

func (c *frameCountConn) Write(p []byte) (int, error) {
	for i := 0; i < len(p); {
		if c.body > 0 {
			k := len(p) - i
			if k > c.body {
				k = c.body
			}
			c.body -= k
			i += k
			continue
		}
		c.n = c.n<<8 | uint32(p[i])
		c.hdr++
		i++
		if c.hdr == 4 {
			c.frames.Add(1)
			c.body, c.hdr, c.n = int(c.n), 0, 0
		}
	}
	return c.Conn.Write(p)
}

// TestPipelineFramesPerOp checks what `ssync store -pipeline 16 -batch
// 8` buys over its lock-step baseline as a count, not a throughput
// ratio: the same zipfian scenario sends one request frame per 8-op
// group when pipelined (a client's last group in a phase may be
// partial), and exactly one per op in lock-step.
func TestPipelineFramesPerOp(t *testing.T) {
	const clients, opsPerClient, keys = 4, 1000, 4096
	dist, err := workload.ParseDist("zipfian", keys)
	if err != nil {
		t.Fatal(err)
	}
	st := New(Options{Shards: 16, Lock: locks.MCS, MaxThreads: clients + 2})
	defer st.Close()
	srv := NewServer(st, 2)
	pre := srv.PipeClient()
	if err := workload.Preload(Driver{C: pre}, keys/2, 64); err != nil {
		t.Fatal(err)
	}
	pre.Close()

	phases := workload.RampSteady(clients, opsPerClient)
	run := func(pipeline, batch int) (frames, ops uint64) {
		var n atomic.Uint64
		results, err := workload.Run(workload.Scenario{
			Dist:     dist,
			Keys:     keys,
			Phases:   phases,
			Batch:    batch,
			Pipeline: pipeline,
		}, func(int) (workload.Conn, error) {
			clientEnd, serverEnd := net.Pipe()
			go func() {
				defer serverEnd.Close()
				_ = srv.ServeConn(serverEnd)
			}()
			conn := &frameCountConn{Conn: clientEnd, frames: &n}
			if pipeline > 1 {
				return Driver{C: NewAsyncClient(conn, pipeline)}, nil
			}
			return Driver{C: NewClient(conn)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range results {
			ops += ph.Ops
		}
		return n.Load(), ops
	}

	const depth, batch = 16, 8
	frames, ops := run(depth, batch)
	want := uint64(0)
	for _, ph := range phases {
		want += uint64(ph.Clients * ((ph.Ops + batch - 1) / batch))
	}
	t.Logf("pipelined: %d frames for %d ops (%.4f frames/op)", frames, ops, float64(frames)/float64(ops))
	if frames != want {
		t.Errorf("pipelined: %d request frames for %d ops, want %d (one per %d-op group)", frames, ops, want, batch)
	}

	frames, ops = run(1, 1)
	if frames != ops {
		t.Errorf("lock-step: %d request frames for %d ops, want one per op", frames, ops)
	}
}
