package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// connScratch pools the per-connection frame buffers (read body and
// response encode). A buffer's ownership rule is strict: it belongs to
// exactly one connection between Get and Put, and nothing a request
// handler produces may alias it past the response write — engines copy
// on insert, parse paths copy out, and the owning Request exists for
// anything (routing, migration) that must outlive the frame.
var connScratch = sync.Pool{New: func() any { return new([]byte) }}

// Server serves the wire protocol over byte streams. One goroutine per
// connection owns a Handle, so every lock token stays goroutine-local;
// connections are striped over NUMA nodes round-robin for the
// hierarchical lock algorithms.
type Server struct {
	store  *Store
	nodes  int
	next   atomic.Uint64 // round-robin NUMA-node assignment
	router Router
}

// Router intercepts point ops so a layer above the store (the cluster's
// per-node migration filter) can decide where each executes: locally
// through the handle, or forwarded to the node that owns the key now.
// Scans and the migration frames bypass it — scans are fanned out by
// clients and always read the local store, and migration streaming must
// reach the local store even (especially) when the ring says the keys
// belong elsewhere.
type Router interface {
	// Route executes one point op that has taken hops forwarding hops so
	// far (0 for a freshly arrived op).
	Route(h *Handle, req Request, hops int) Response
	// RouteBatch executes a batch's sub-ops, routing each. reqs alias the
	// request frame, and hashes is the caller's scratch, len(reqs) long,
	// for the router to fill with each point op's key hash
	// (hashkit.FNV1aBytes) and hand on to Handle.ExecViews. The
	// responses may alias the frame, the scratch and h's batch arena;
	// the caller encodes them before its next use of any of the three.
	RouteBatch(h *Handle, reqs []RequestView, hashes []uint64) []Response
}

// SetRouter installs r on the server. It must be called before any
// connection is served.
func (sv *Server) SetRouter(r Router) { sv.router = r }

// NewServer wraps a store. nodes is the NUMA-node count to stripe
// connections over (values below 1 mean 1).
func NewServer(s *Store, nodes int) *Server {
	if nodes < 1 {
		nodes = 1
	}
	return &Server{store: s, nodes: nodes}
}

// Store returns the served store.
func (sv *Server) Store() *Store { return sv.store }

// Serve accepts connections until ln fails, handling each on its own
// goroutine. It returns the accept error (net.ErrClosed after Close).
func (sv *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = sv.ServeConn(conn)
		}()
	}
}

// ServeConn handles one connection until EOF or failure. A malformed
// request gets a StatusError response and closes the stream (framing
// cannot be trusted after a parse error); store operations themselves
// cannot fail. Requests are answered strictly in arrival order —
// together with the tag echo this is the ordering guarantee the
// pipelined client's FIFO matching relies on. Responses are flushed
// lazily: while more complete frames are already buffered, the reply
// stays in the write buffer, so a pipelined burst is answered with a
// coalesced burst.
func (sv *Server) ServeConn(conn io.ReadWriter) error {
	seq := int(sv.next.Add(1) - 1)
	node := seq % sv.nodes
	if pl := sv.store.Placement(); pl != nil {
		// Under a placement, connections stripe over the LLC domains
		// instead of abstract node indices: the goroutine pins itself to
		// its domain for the connection's lifetime, and the hierarchical
		// locks get that domain's actual memory node as their NUMA hint —
		// so a connection's lock spinning, frame buffers and shard visits
		// all agree on where "local" is.
		if domain, memNode := pl.ConnDomain(seq); domain >= 0 {
			undo := pl.Pin(domain)
			defer undo()
			node = memNode % sv.nodes
		}
	}
	h := sv.store.NewHandle(node)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	inp := connScratch.Get().(*[]byte)
	outp := connScratch.Get().(*[]byte)
	in, out := *inp, *outp
	// Batch parse scratch: the views alias in, so they die with each
	// frame; both slices grow lazily to the connection's largest batch.
	var batch batchView
	var hashes []uint64
	defer func() {
		*inp = in[:0]
		connScratch.Put(inp)
		*outp = out[:0]
		connScratch.Put(outp)
	}()
	for {
		body, err := ReadFrame(br, in)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		in = body[:0]
		out = out[:0]

		// Peel an optional tag; the response echoes it first.
		inner := body
		if len(body) > 0 && body[0] == OpTagged {
			tag, rest, terr := ParseTag(body)
			if terr != nil {
				return sv.reject(bw, out, terr)
			}
			inner = rest
			out = binary.BigEndian.AppendUint32(out, tag)
		}

		if len(inner) > 0 && isBatchOp(inner[0]) {
			if err := parseBatchView(inner, &batch); err != nil {
				return sv.reject(bw, out, err) // out keeps the echoed tag
			}
			var resps []Response
			if sv.router != nil {
				if cap(hashes) < len(batch.reqs) {
					hashes = make([]uint64, len(batch.reqs))
				}
				resps = sv.router.RouteBatch(h, batch.reqs, hashes[:len(batch.reqs)])
			} else {
				resps = h.ExecViews(batch.reqs, nil)
			}
			out = appendBatchBounded(out, batch.reqs, resps)
		} else if len(inner) > 0 && inner[0] >= OpMigExport && inner[0] <= OpForward {
			mreq, err := ParseMigrateRequest(inner)
			if err != nil {
				return sv.reject(bw, out, err) // out keeps the echoed tag
			}
			out, err = sv.executeMigrate(h, mreq, out)
			if err != nil {
				return err
			}
		} else {
			view, err := ParseRequestView(inner)
			if err != nil {
				return sv.reject(bw, out, err) // out keeps the echoed tag
			}
			if sv.router != nil && view.Op >= OpGet && view.Op <= OpDelete {
				// Routing may carry the op beyond this frame's lifetime
				// (forwarding to another node), so it gets an owning
				// Request — the same copies ParseRequest would have made.
				req := view.Owned()
				resp := sv.router.Route(h, req, 0)
				out, err = AppendResponse(out, req.Op, resp)
			} else {
				out, err = sv.executeView(h, view, out)
			}
			if err != nil {
				return err
			}
		}
		if err := WriteFrame(bw, out); err != nil {
			return err
		}
		if br.Buffered() >= 4 {
			continue // more requests already in hand: batch the flush
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// reject sends the terminal StatusError response for an unparseable
// request and reports why the connection is closing.
func (sv *Server) reject(bw *bufio.Writer, out []byte, err error) error {
	out, _ = AppendResponse(out, 0, Response{Status: StatusError, Msg: err.Error()})
	if werr := WriteFrame(bw, out); werr != nil {
		return werr
	}
	if werr := bw.Flush(); werr != nil {
		return werr
	}
	return fmt.Errorf("store: closing connection after bad request: %w", err)
}

// appendBatchBounded encodes a batch response, keeping the frame under
// MaxFrame: 64 bytes are reserved for every not-yet-encoded sub-response,
// and a sub-response that would overflow the remaining budget is replaced
// by a (small) StatusError — so one over-full multi-get degrades its tail
// instead of killing the connection.
func appendBatchBounded(dst []byte, reqs []RequestView, resps []Response) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(resps)))
	n := len(resps)
	for i := range resps {
		allowed := MaxFrame - 64*(n-1-i)
		mark := len(dst)
		enc, err := AppendResponse(dst, reqs[i].Op, trimResp(reqs[i].Op, resps[i]))
		if err != nil || len(enc) > allowed {
			enc, _ = AppendResponse(dst[:mark], reqs[i].Op,
				Response{Status: StatusError, Msg: MsgBatchOverflow})
		}
		dst = enc
	}
	return dst
}

// trimResp applies the scan frame-trim policy to a sub-response (the
// batch path's per-sub budget check degrades anything that still does
// not fit, so no extra overhead is threaded here).
func trimResp(op byte, r Response) Response {
	if op == OpScan && r.Status == StatusOK {
		r.Entries = trimToFrame(r.Entries, 0)
	}
	return r
}

// PipeClient connects a new in-process client to the server over
// net.Pipe, with the server side on its own goroutine — the transport
// `ssync store`, the harness experiments and the e2e tests share.
func (sv *Server) PipeClient() *Client {
	return NewClient(sv.pipeConn())
}

// PipeAsyncClient is PipeClient's multiplexed sibling: a new async
// client with the given in-flight window over net.Pipe.
func (sv *Server) PipeAsyncClient(window int) *AsyncClient {
	return NewAsyncClient(sv.pipeConn(), window)
}

func (sv *Server) pipeConn() net.Conn {
	clientEnd, serverEnd := net.Pipe()
	go func() {
		defer serverEnd.Close()
		_ = sv.ServeConn(serverEnd)
	}()
	return clientEnd
}

// executeView runs one zero-copy scalar request against the handle,
// encoding the response directly onto out (which already carries the
// echoed tag; its length is the overhead a trimmed scan must respect).
// For get/put/delete nothing on this path allocates in steady state:
// the key stays a frame-aliasing byte slice all the way into the
// engine, and a get's value is appended by the engine straight into
// the response buffer behind a status byte and length placeholder.
func (sv *Server) executeView(h *Handle, req RequestView, out []byte) ([]byte, error) {
	switch req.Op {
	case OpGet:
		mark := len(out)
		out = append(out, StatusOK, 0, 0, 0, 0)
		ext, ok := h.GetBytes(req.Key, out)
		if !ok {
			return append(ext[:mark], StatusNotFound), nil
		}
		n := len(ext) - mark - 5
		if n > MaxValueLen {
			// Matches AppendResponse's bound for values stored through a
			// direct handle, which the wire's parse limit never saw.
			return out, ErrValueTooLong
		}
		binary.BigEndian.PutUint32(ext[mark+1:mark+5], uint32(n))
		return ext, nil
	case OpPut:
		created := byte(0)
		if h.PutBytes(req.Key, req.Value) {
			created = 1
		}
		return append(out, StatusOK, created), nil
	case OpDelete:
		if h.DeleteBytes(req.Key) {
			return append(out, StatusOK), nil
		}
		return append(out, StatusNotFound), nil
	case OpScan:
		entries := h.Scan(string(req.Key), scanLimit(req.Limit))
		return AppendResponse(out, OpScan, Response{Status: StatusOK, Entries: trimToFrame(entries, len(out))})
	}
	return AppendResponse(out, req.Op, Response{Status: StatusError, Msg: ErrBadOp.Error()})
}

// executeMigrate serves the migration frames. EXPORT, DIGEST and APPLY
// hit the local store directly — never the Router — because the
// migration driver deliberately reads and writes nodes the ring does
// not route to. FORWARD goes through the Router when one is installed
// (the whole point of the frame); without one the op just executes
// locally, which keeps a store-only deployment honest.
func (sv *Server) executeMigrate(h *Handle, mreq MigrateRequest, out []byte) ([]byte, error) {
	switch mreq.Op {
	case OpMigExport:
		// Budget the chunk so the response frame cannot overflow: entries
		// stop at a bucket boundary under the byte cap, with headroom for
		// the tag, status, cursor and one bucket of overshoot.
		entries, next, done := h.ExportRange(mreq.Cursor, int(mreq.Max), MaxFrame/2, mreq.Arcs)
		resp := MigrateResponse{Status: StatusOK, Done: done, Next: next, Entries: entries}
		enc, err := AppendMigrateResponse(out, mreq.Op, resp)
		if err != nil {
			enc, err = AppendMigrateResponse(out, mreq.Op, MigrateResponse{Status: StatusError, Msg: err.Error()})
		}
		return enc, err
	case OpMigDigest:
		digests := h.DigestRange(mreq.Arcs, int(mreq.Slots))
		return AppendMigrateResponse(out, mreq.Op, MigrateResponse{Status: StatusOK, Digests: digests})
	case OpMigApply:
		applied := h.ApplyMigration(mreq.Puts, mreq.Dels)
		return AppendMigrateResponse(out, mreq.Op, MigrateResponse{Status: StatusOK, Applied: uint32(applied)})
	case OpForward:
		var resp Response
		if sv.router != nil {
			resp = sv.router.Route(h, mreq.Inner, int(mreq.Hops))
		} else {
			resp = h.Exec(mreq.Inner)
		}
		return AppendResponse(out, mreq.Inner.Op, resp)
	}
	return out, ErrBadOp
}

// trimToFrame drops trailing scan entries until the encoded response
// (overhead + status + count + per-entry headers and payloads) fits one
// frame.
func trimToFrame(entries []Entry, overhead int) []Entry {
	size := overhead + 1 + 4
	for i, e := range entries {
		size += 2 + len(e.Key) + 4 + len(e.Value)
		if size > MaxFrame {
			return entries[:i]
		}
	}
	return entries
}
