package store

import (
	"fmt"

	"ssync/internal/workload"
)

// Driver wraps a Conn into the shape the workload engine consumes
// (workload.Conn): the same methods, except Scan reports only the entry
// count. It also implements workload.PipeConn, so scenarios with batch
// or pipeline knobs set work over any store connection:
//
//   - an AsyncClient executes op groups as tagged batch frames and
//     overlaps up to its window of them in flight (true pipelining);
//   - a Client or LocalConn executes each group as one batch at Issue
//     time (lock amortization without overlap);
//   - any other Conn degrades to scalar ops at Issue time.
type Driver struct {
	C Conn
}

// Get forwards to the wrapped connection.
func (d Driver) Get(key string) ([]byte, bool, error) { return d.C.Get(key) }

// Put forwards to the wrapped connection.
func (d Driver) Put(key string, value []byte) (bool, error) { return d.C.Put(key, value) }

// Delete forwards to the wrapped connection.
func (d Driver) Delete(key string) (bool, error) { return d.C.Delete(key) }

// Scan forwards to the wrapped connection and reports the entry count.
func (d Driver) Scan(prefix string, limit int) (int, error) {
	entries, err := d.C.Scan(prefix, limit)
	return len(entries), err
}

// Close forwards to the wrapped connection.
func (d Driver) Close() error { return d.C.Close() }

var _ workload.PipeConn = Driver{}

// Issuer is a Conn that routes and pipelines op groups itself — the
// cluster routing client (internal/cluster), which must split a group
// across nodes before any batch frame exists. Driver defers to it
// wholesale. The workload.Pending contract holds: the caller calls Wait
// exactly once per issued group, which lets an Issuer recycle the
// pending and its futures at Wait.
type Issuer interface {
	Issue(ops []workload.Op) workload.Pending
}

// Issue starts one op group. A single scalar op skips batch framing
// entirely; groups go out as one batch frame.
func (d Driver) Issue(ops []workload.Op) workload.Pending {
	switch c := d.C.(type) {
	case Issuer:
		return c.Issue(ops)
	case *AsyncClient:
		if len(ops) == 1 {
			return scalarPending{op: ops[0], f: submitScalar(c, ops[0])}
		}
		reqs := ToRequests(ops)
		return batchPending{conn: d.C, reqs: reqs, f: c.BatchAsync(reqs)}
	case BatchConn:
		if len(ops) == 1 {
			return donePending(execScalar(d.C, ops[0]))
		}
		reqs := ToRequests(ops)
		resps, err := c.ExecBatch(reqs)
		if err != nil {
			return donePending(workload.Outcome{}, err)
		}
		out, err := BatchOutcome(d.C, reqs, resps)
		return donePending(out, err)
	default:
		var out workload.Outcome
		for _, op := range ops {
			o, err := execScalar(d.C, op)
			out.Add(o)
			if err != nil {
				return donePending(out, err)
			}
		}
		return donePending(out, nil)
	}
}

// submitScalar maps one workload op onto the async scalar surface.
func submitScalar(c *AsyncClient, op workload.Op) *Future {
	switch op.Kind {
	case workload.KindGet:
		return c.GetAsync(op.Key)
	case workload.KindPut:
		return c.PutAsync(op.Key, op.Value)
	case workload.KindDelete:
		return c.DeleteAsync(op.Key)
	default:
		return c.ScanAsync(op.Key, op.Limit)
	}
}

// execScalar runs one workload op synchronously on a Conn.
func execScalar(c Conn, op workload.Op) (workload.Outcome, error) {
	out := workload.Outcome{Ops: 1}
	switch op.Kind {
	case workload.KindGet:
		_, found, err := c.Get(op.Key)
		if err != nil {
			return out, err
		}
		if found {
			out.Hits++
		} else {
			out.Misses++
		}
	case workload.KindPut:
		created, err := c.Put(op.Key, op.Value)
		if err != nil {
			return out, err
		}
		if created {
			out.Created++
		}
	case workload.KindDelete:
		if _, err := c.Delete(op.Key); err != nil {
			return out, err
		}
	default:
		entries, err := c.Scan(op.Key, op.Limit)
		if err != nil {
			return out, err
		}
		out.Scanned += uint64(len(entries))
	}
	return out, nil
}

// ToRequests maps an op group onto wire requests.
func ToRequests(ops []workload.Op) []Request {
	return AppendRequests(make([]Request, 0, len(ops)), ops)
}

// AppendRequests appends the wire requests of an op group to dst — the
// ToRequests mapping into caller-owned scratch.
func AppendRequests(dst []Request, ops []workload.Op) []Request {
	for _, op := range ops {
		var r Request
		switch op.Kind {
		case workload.KindGet:
			r = Request{Op: OpGet, Key: op.Key}
		case workload.KindPut:
			r = Request{Op: OpPut, Key: op.Key, Value: op.Value}
		case workload.KindDelete:
			r = Request{Op: OpDelete, Key: op.Key}
		default:
			limit := op.Limit
			if limit < 0 {
				limit = 0
			}
			r = Request{Op: OpScan, Key: op.Key, Limit: uint32(limit)}
		}
		dst = append(dst, r)
	}
	return dst
}

// BatchOutcome tallies a batch's sub-responses, surfacing any sub-error.
// A sub-response the server degraded to fit the frame (MsgBatchOverflow)
// is re-executed scalar over conn — the per-key contract the blocking
// MGet wrapper keeps, so an over-full batch degrades a run's throughput
// instead of aborting it.
func BatchOutcome(conn Conn, reqs []Request, resps []Response) (workload.Outcome, error) {
	var out workload.Outcome
	for i, r := range resps {
		if r.Status == StatusError {
			if r.Msg != MsgBatchOverflow {
				return out, fmt.Errorf("store: batch[%d]: server error: %s", i, r.Msg)
			}
			o, err := execScalar(conn, fromRequest(reqs[i]))
			out.Add(o)
			if err != nil {
				return out, fmt.Errorf("store: batch[%d]: overflow refetch: %w", i, err)
			}
			continue
		}
		out.Ops++
		switch reqs[i].Op {
		case OpGet:
			if r.Status == StatusOK {
				out.Hits++
			} else {
				out.Misses++
			}
		case OpPut:
			if r.Created {
				out.Created++
			}
		case OpScan:
			out.Scanned += uint64(len(r.Entries))
		}
	}
	return out, nil
}

// fromRequest maps a wire request back onto a workload op (the overflow
// refetch path).
func fromRequest(r Request) workload.Op {
	switch r.Op {
	case OpGet:
		return workload.Op{Kind: workload.KindGet, Key: r.Key}
	case OpPut:
		return workload.Op{Kind: workload.KindPut, Key: r.Key, Value: r.Value}
	case OpDelete:
		return workload.Op{Kind: workload.KindDelete, Key: r.Key}
	default:
		return workload.Op{Kind: workload.KindScan, Key: r.Key, Limit: int(r.Limit)}
	}
}

// donePending is an already-resolved Pending (synchronous backends).
type donePendingT struct {
	out workload.Outcome
	err error
}

func donePending(out workload.Outcome, err error) workload.Pending {
	return donePendingT{out: out, err: err}
}

func (p donePendingT) Wait() (workload.Outcome, error) { return p.out, p.err }

// scalarPending resolves a pipelined scalar op.
type scalarPending struct {
	op workload.Op
	f  *Future
}

func (p scalarPending) Wait() (workload.Outcome, error) {
	resp, err := p.f.Wait()
	out := workload.Outcome{Ops: 1}
	if err != nil {
		return workload.Outcome{}, err
	}
	switch p.op.Kind {
	case workload.KindGet:
		if resp.Status == StatusOK {
			out.Hits++
		} else {
			out.Misses++
		}
	case workload.KindPut:
		if resp.Created {
			out.Created++
		}
	case workload.KindScan:
		out.Scanned += uint64(len(resp.Entries))
	}
	return out, nil
}

// batchPending resolves a pipelined batch frame.
type batchPending struct {
	conn Conn
	reqs []Request
	f    *Future
}

func (p batchPending) Wait() (workload.Outcome, error) {
	resps, err := p.f.WaitBatch()
	if err != nil {
		return workload.Outcome{}, err
	}
	return BatchOutcome(p.conn, p.reqs, resps)
}
