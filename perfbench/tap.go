package main

import (
	"encoding/binary"
	"net"
	"sync"

	"ssync/internal/store"
)

// The wire tracer. A link is one net.Pipe connection with a tap on each
// end. Every tap parses the length-prefixed frames crossing it and
// stamps each one: a write stamps the frames that start in it, at the
// moment the bytes are handed to the pipe; a read stamps the frames that
// complete in it, at the moment they arrive. The server answers frames
// strictly in arrival order, so the k-th request a client writes is the
// k-th the server reads and the k-th response each side sees: the four
// stamps of exchange k sit at index k of the four rings.

const (
	ringSize = 4096 // far above any in-flight window, so a slot is read before reuse
	ringMask = ringSize - 1
)

// framer follows frame boundaries through a byte stream.
type framer struct {
	hdr [4]byte
	nh  int // header bytes seen of the current frame
	rem int // body bytes still to come
}

// feed consumes p and reports how many frames started and how many
// completed inside it.
func (f *framer) feed(p []byte) (started, completed int) {
	for len(p) > 0 {
		if f.nh < 4 {
			if f.nh == 0 {
				started++
			}
			c := copy(f.hdr[f.nh:], p)
			f.nh += c
			p = p[c:]
			if f.nh == 4 {
				f.rem = int(binary.BigEndian.Uint32(f.hdr[:]))
				if f.rem == 0 {
					completed++
					f.nh = 0
				}
			}
			continue
		}
		c := f.rem
		if c > len(p) {
			c = len(p)
		}
		f.rem -= c
		p = p[c:]
		if f.rem == 0 {
			completed++
			f.nh = 0
		}
	}
	return started, completed
}

// tap wraps one end of a pipe. Its fields are owned by the goroutines
// that read and write that end; another goroutine reads a stamp only
// after the frame it belongs to has crossed the pipe, which orders the
// accesses.
type tap struct {
	net.Conn
	c              *clock
	rd, wr         framer
	nRead, nWrote  uint64
	read, wrote    [ringSize]int64
	writes, framed uint64 // writes that started a frame, and the frames they started
}

func (t *tap) Write(p []byte) (int, error) {
	now := t.c.now()
	s, _ := t.wr.feed(p)
	for i := 0; i < s; i++ {
		t.wrote[(t.nWrote+uint64(i))&ringMask] = now
	}
	t.nWrote += uint64(s)
	if s > 0 {
		t.writes++
		t.framed += uint64(s)
	}
	return t.Conn.Write(p)
}

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	now := t.c.now()
	_, done := t.rd.feed(p[:n])
	for i := 0; i < done; i++ {
		t.read[(t.nRead+uint64(i))&ringMask] = now
	}
	t.nRead += uint64(done)
	return n, err
}

// link is one traced connection: cli is the client's end, srv the
// server's.
type link struct{ cli, srv tap }

// pipes serves connections over net.Pipe and waits for their server
// goroutines at close.
type pipes struct{ wg sync.WaitGroup }

// dial connects a new pipe to sv. With a link, both ends are tapped and
// the returned conn is the client's tap.
func (p *pipes) dial(sv *store.Server, l *link, c *clock) net.Conn {
	cli, srv := net.Pipe()
	var cliEnd, srvEnd net.Conn = cli, srv
	if l != nil {
		l.cli = tap{Conn: cli, c: c}
		l.srv = tap{Conn: srv, c: c}
		cliEnd, srvEnd = &l.cli, &l.srv
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer srv.Close()
		_ = sv.ServeConn(srvEnd)
	}()
	return cliEnd
}

// wait returns once every served connection has ended; call it after
// closing the clients.
func (p *pipes) wait() { p.wg.Wait() }

// spans accumulates the per-layer spans of traced exchanges.
type spans struct {
	encode, transport, service, decode, latency hist
}

// exchange records exchange k on l, issued at start and returned to the
// caller at end.
func (s *spans) exchange(l *link, k uint64, start, end int64) {
	i := k & ringMask
	cw, sr, sw, cr := l.cli.wrote[i], l.srv.read[i], l.srv.wrote[i], l.cli.read[i]
	s.encode.record(cw - start)
	s.transport.record((sr - cw) + (cr - sw))
	s.service.record(sw - sr)
	s.decode.record(end - cr)
	s.latency.record(end - start)
}

func (s *spans) merge(o *spans) {
	s.encode.merge(&o.encode)
	s.transport.merge(&o.transport)
	s.service.merge(&o.service)
	s.decode.merge(&o.decode)
	s.latency.merge(&o.latency)
}

// wireMetrics reports the wire layers' medians, frames per server flush
// over links, and the share of the median client latency that the four
// layer medians leave uncovered.
func (s *spans) wireMetrics(m metricSet, links []*link) {
	us := func(h *hist) float64 { return h.quantile(0.5) / 1e3 }
	enc, tr, svc, dec, lat := us(&s.encode), us(&s.transport), us(&s.service), us(&s.decode), us(&s.latency)
	m.set("client.encode_us", enc, "us")
	m.set("client.decode_us", dec, "us")
	m.set("transport.us", tr, "us")
	m.set("server.service_us", svc, "us")
	var writes, framed uint64
	for _, l := range links {
		writes += l.srv.writes
		framed += l.srv.framed
	}
	if writes > 0 {
		m.set("server.frames_per_flush", float64(framed)/float64(writes), "frames")
	}
	if lat > 0 {
		m.set("trace.residual_pct", 100*(lat-enc-tr-svc-dec)/lat, "%")
	}
}
