// Package transport carries wire-encoded Π⁺ messages between nodes over
// TCP. It is the deployment edge of the module and is deliberately NOT a
// deterministic package: it owns sockets, goroutines, and wall-clock
// timeouts (the wire format itself stays pure in package wire).
//
// The shape mirrors the runtime's mailbox discipline: one bounded
// drop-oldest outbound queue per peer with a single writer goroutine
// that owns the connection, so a slow or dead peer degrades to omission
// — frames are dropped and counted, and the caller's Send never blocks
// the protocol loop. Dials retry with the seeded exponential backoff in
// wire.Backoff, so reconnection offsets are a pure function of the seed.
//
// Chaos enters at exactly this layer through LinkFaults: a severed link
// (partition) closes the connection and refuses frames in both
// directions until it heals; per-frame fates inject loss and write delay
// (skew) without touching the protocol above.
//
//ftss:conc sockets and per-peer writer goroutines; lock/channel protocol statically checked
package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftss/internal/proc"
	"ftss/internal/wire"
)

// LinkFaults injects connection-level chaos. Implementations must be
// safe for concurrent use; elapsed is time since Transport.Start.
type LinkFaults interface {
	// Severed reports whether the link between the local node and peer
	// is cut at elapsed. A severed link drops frames in both directions
	// and keeps the outbound connection closed until it heals.
	Severed(elapsed time.Duration, peer proc.ID) bool
	// FrameFate decides the fate of outbound frame seq to peer: dropped
	// outright, or written after an extra delay (clock-skew chaos).
	FrameFate(elapsed time.Duration, seq uint64, to proc.ID) (drop bool, delay time.Duration)
}

// Config parameterizes a Transport.
type Config struct {
	// Self is the local process ID (stamped on every outbound frame).
	Self proc.ID
	// Listen is the local listen address ("127.0.0.1:0" picks a port).
	Listen string
	// Peers maps remote process IDs to their dial addresses. Self may be
	// present and is ignored.
	Peers map[proc.ID]string
	// Seed drives the deterministic dial backoff jitter.
	Seed int64
	// DialTimeout bounds one dial attempt (default 500ms).
	DialTimeout time.Duration
	// DialBase and DialMax shape the reconnect backoff (defaults 50ms, 2s).
	DialBase, DialMax time.Duration
	// WriteTimeout bounds one frame write (default 1s).
	WriteTimeout time.Duration
	// QueueCap bounds each peer's outbound queue (default 1024); the
	// oldest frame is dropped to admit a new one, mirroring the
	// runtime's drop-oldest mailboxes.
	QueueCap int
	// Faults injects connection-level chaos (nil = none).
	Faults LinkFaults
	// OnMessage receives every decoded inbound frame. It runs on the
	// connection's reader goroutine and must not block for long.
	OnMessage func(from proc.ID, payload any)
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 500 * time.Millisecond
	}
	if c.DialBase <= 0 {
		c.DialBase = 50 * time.Millisecond
	}
	if c.DialMax <= 0 {
		c.DialMax = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = time.Second
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c
}

// Stats is a snapshot of the transport's counters. Drops are split by
// cause so a run report can distinguish chaos (Severed, FrameFate) from
// degradation (QueueFull, Disconnected).
type Stats struct {
	FramesSent, FramesRecv            uint64
	Dials, DialFailures               uint64
	ConnsAccepted                     uint64
	DropsQueueFull, DropsSevered      uint64
	DropsFrameFate, DropsDisconnected uint64
	DecodeErrors                      uint64
}

// String renders a compact single-line report.
func (s Stats) String() string {
	return fmt.Sprintf(
		"transport: sent=%d recv=%d dials=%d dial-failures=%d accepted=%d drops[queue=%d severed=%d fate=%d disconnected=%d] decode-errors=%d",
		s.FramesSent, s.FramesRecv, s.Dials, s.DialFailures, s.ConnsAccepted,
		s.DropsQueueFull, s.DropsSevered, s.DropsFrameFate, s.DropsDisconnected, s.DecodeErrors)
}

type outFrame struct {
	seq uint64
	buf []byte
}

// peerLink is one outbound link: a bounded frame queue drained by a
// single writer goroutine that owns the connection and its redials.
type peerLink struct {
	id   proc.ID
	addr string

	mu sync.Mutex
	//ftss:guardedby mu
	queue []outFrame
	//ftss:guardedby mu
	closed bool
	notify chan struct{}
	done   chan struct{} // closed with the link (wakes sleeps and waits)
	//ftss:guardedby mu
	conn net.Conn
}

// Transport is one node's endpoint: a listener for inbound frames and a
// writer per peer for outbound ones.
type Transport struct {
	cfg   Config
	ln    net.Listener
	start time.Time
	seq   atomic.Uint64
	peers map[proc.ID]*peerLink

	mu sync.Mutex
	//ftss:guardedby mu
	conns map[net.Conn]struct{}
	//ftss:guardedby mu
	closed bool
	wg     sync.WaitGroup

	framesSent, framesRecv            atomic.Uint64
	dials, dialFailures               atomic.Uint64
	connsAccepted                     atomic.Uint64
	dropsQueueFull, dropsSevered      atomic.Uint64
	dropsFrameFate, dropsDisconnected atomic.Uint64
	decodeErrors                      atomic.Uint64
}

// New opens the listener and starts the accept loop and one writer per
// peer. The transport is live on return; Addr reports the bound address.
func New(cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport listen %s: %w", cfg.Listen, err)
	}
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		start: time.Now(),
		peers: make(map[proc.ID]*peerLink, len(cfg.Peers)),
		conns: make(map[net.Conn]struct{}),
	}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		p := &peerLink{id: id, addr: addr, notify: make(chan struct{}, 1), done: make(chan struct{})}
		t.peers[id] = p
		t.wg.Add(1)
		go t.writer(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr is the bound listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Stats snapshots the counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent:        t.framesSent.Load(),
		FramesRecv:        t.framesRecv.Load(),
		Dials:             t.dials.Load(),
		DialFailures:      t.dialFailures.Load(),
		ConnsAccepted:     t.connsAccepted.Load(),
		DropsQueueFull:    t.dropsQueueFull.Load(),
		DropsSevered:      t.dropsSevered.Load(),
		DropsFrameFate:    t.dropsFrameFate.Load(),
		DropsDisconnected: t.dropsDisconnected.Load(),
		DecodeErrors:      t.decodeErrors.Load(),
	}
}

// Send encodes payload and queues it for peer to. It never blocks: a
// full queue drops its oldest frame, an unknown peer or encode failure
// drops the message, all counted. It reports whether the frame was
// queued.
func (t *Transport) Send(to proc.ID, payload any) bool {
	p, ok := t.peers[to]
	if !ok {
		t.dropsDisconnected.Add(1)
		return false
	}
	buf, err := wire.AppendFrame(nil, t.cfg.Self, payload)
	if err != nil {
		t.decodeErrors.Add(1)
		return false
	}
	f := outFrame{seq: t.seq.Add(1), buf: buf}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.dropsDisconnected.Add(1)
		return false
	}
	if len(p.queue) >= t.cfg.QueueCap {
		copy(p.queue, p.queue[1:])
		p.queue = p.queue[:len(p.queue)-1]
		t.dropsQueueFull.Add(1)
	}
	p.queue = append(p.queue, f)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return true
}

// Close shuts the transport down: listener, connections, writers. Safe
// to call once; blocks until every goroutine has exited.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	err := t.ln.Close()
	for _, p := range t.peers {
		p.mu.Lock()
		p.closed = true
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
		close(p.done)
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}

func (t *Transport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// severed consults the fault plan for a cut link to peer.
func (t *Transport) severed(peer proc.ID) bool {
	if t.cfg.Faults == nil {
		return false
	}
	return t.cfg.Faults.Severed(time.Since(t.start), peer)
}

// writer drains one peer's queue, owning the connection: dial with
// seeded backoff, apply per-frame fates, drop on severed links, and
// degrade to counted omission on any write failure.
func (t *Transport) writer(p *peerLink) {
	defer t.wg.Done()
	attempt := 0
	for {
		f, ok := t.nextFrame(p)
		if !ok {
			return
		}
		if t.severed(p.id) {
			t.dropsSevered.Add(1)
			t.closeConn(p)
			continue
		}
		if t.cfg.Faults != nil {
			drop, delay := t.cfg.Faults.FrameFate(time.Since(t.start), f.seq, p.id)
			if drop {
				t.dropsFrameFate.Add(1)
				continue
			}
			if delay > 0 && t.sleep(p, delay) {
				return
			}
		}
		conn := t.currentConn(p)
		if conn == nil {
			var redial bool
			conn, redial = t.dial(p, &attempt)
			if conn == nil {
				if redial {
					return // transport closed
				}
				t.dropsDisconnected.Add(1)
				continue
			}
		}
		conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		if _, err := conn.Write(f.buf); err != nil {
			t.dropsDisconnected.Add(1)
			t.closeConn(p)
			continue
		}
		t.framesSent.Add(1)
	}
}

// nextFrame blocks until a frame is queued or the link closes.
func (t *Transport) nextFrame(p *peerLink) (outFrame, bool) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return outFrame{}, false
		}
		if len(p.queue) > 0 {
			f := p.queue[0]
			copy(p.queue, p.queue[1:])
			p.queue = p.queue[:len(p.queue)-1]
			p.mu.Unlock()
			return f, true
		}
		p.mu.Unlock()
		select {
		case <-p.notify:
		case <-p.done:
		}
	}
}

// sleep waits for d, waking early if the link closes; it reports whether
// the link shut down meanwhile.
func (t *Transport) sleep(p *peerLink, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return false
	case <-p.done:
		return true
	}
}

// currentConn returns the live outbound connection, if any.
func (t *Transport) currentConn(p *peerLink) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// closeConn drops the outbound connection so the next frame redials.
func (t *Transport) closeConn(p *peerLink) {
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.mu.Unlock()
}

// dial establishes the outbound connection, retrying with the seeded
// backoff until it succeeds, the link severs, or the transport closes.
// It returns (nil, true) on shutdown and (nil, false) when the link
// severed mid-dial (the caller drops the frame and moves on).
func (t *Transport) dial(p *peerLink, attempt *int) (net.Conn, bool) {
	for {
		if t.isClosed() {
			return nil, true
		}
		if t.severed(p.id) {
			return nil, false
		}
		t.dials.Add(1)
		p.mu.Lock()
		addr := p.addr
		p.mu.Unlock()
		conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
		if err == nil {
			*attempt = 0
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				conn.Close()
				return nil, true
			}
			p.conn = conn
			p.mu.Unlock()
			return conn, false
		}
		t.dialFailures.Add(1)
		wait := wire.Backoff(t.cfg.Seed, p.id, *attempt, t.cfg.DialBase, t.cfg.DialMax)
		*attempt++
		if t.sleep(p, wait) {
			return nil, true
		}
	}
}

// acceptLoop admits inbound connections and spawns a reader per conn.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.connsAccepted.Add(1)
		t.wg.Add(1)
		t.mu.Unlock()
		go t.reader(conn)
	}
}

// reader decodes frames off one inbound connection until it fails.
// Malformed frames are counted and sever the connection: codec
// strictness means a corrupt peer yields omission, not garbage.
func (t *Transport) reader(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	for {
		from, payload, err := t.readOne(conn)
		if err != nil {
			if err != io.EOF {
				t.decodeErrors.Add(1)
			}
			return
		}
		if t.severed(from) {
			t.dropsSevered.Add(1)
			continue
		}
		t.framesRecv.Add(1)
		if t.cfg.OnMessage != nil {
			t.cfg.OnMessage(from, payload)
		}
	}
}

// readOne reads one frame, classifying network teardown as io.EOF.
func (t *Transport) readOne(conn net.Conn) (proc.ID, any, error) {
	from, payload, err := wire.ReadFrame(conn)
	if err != nil {
		if ne, ok := err.(net.Error); ok && !ne.Timeout() {
			return proc.None, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF && t.isClosed() {
			return proc.None, nil, io.EOF
		}
		return proc.None, nil, err
	}
	return from, payload, nil
}
