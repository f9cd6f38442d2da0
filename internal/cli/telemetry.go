package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on the opt-in -pprof listener only
	"os"
	"sync"
	"time"

	"ftss/internal/admin"
	"ftss/internal/obs"
)

// Flags names the shared telemetry flags a binary declares; anything it
// does not ask for stays an unknown flag.
type Flags uint

const (
	Metrics         Flags = 1 << iota // -metrics FILE: the exit snapshot
	MetricsInterval                   // -metrics-interval D: delta blocks to FILE.deltas
	Events                            // -events FILE, truncated at start
	EventsAppend                      // -events FILE, appended: a restarted incarnation extends it
	Admin                             // -admin ADDR: /metrics, /healthz, /events
	Pprof                             // -pprof ADDR: net/http/pprof
)

// Telemetry is one binary's telemetry session, the only place the
// shared flags are declared, opened and closed:
//
//	tel := cli.Bind(fs, cli.Metrics|cli.Events|cli.Pprof)
//	fs.Parse(args)
//	tel.Open(out)                          // validate, bind pprof, open -events
//	defer func() { err = tel.Close(err) }()
//	... build the system over tel.Sink() ...
//	tel.Serve("", snapshot, health)        // admin plane, delta stream
//
// The zero value is a session with nothing set: every method is a no-op.
type Telemetry struct {
	metrics, events, adminAddr, pprofAddr string
	interval                              time.Duration
	appendEvents                          bool

	out      io.Writer
	pprof    *http.Server
	eventsF  *os.File
	eventsW  io.Writer // the file, the admin tail, or both; nil when neither
	sink     *obs.JSONL
	tail     *admin.Tail
	adm      *admin.Server
	snapshot func() []byte

	deltasF   *os.File
	deltas    *obs.DeltaWriter
	deltaStop chan struct{}
	deltaWG   sync.WaitGroup
}

// Bind declares the flags in want on fs. Parse fs before Open.
func Bind(fs *flag.FlagSet, want Flags) *Telemetry {
	t := &Telemetry{appendEvents: want&EventsAppend != 0}
	if want&Metrics != 0 {
		fs.StringVar(&t.metrics, "metrics", "", "write the telemetry snapshot to this file on exit, also when the run failed")
	}
	if want&MetricsInterval != 0 {
		fs.DurationVar(&t.interval, "metrics-interval", 0,
			"stream periodic metric delta blocks to the -metrics file + \".deltas\" (0 = off)")
	}
	if want&(Events|EventsAppend) != 0 {
		fs.StringVar(&t.events, "events", "", "write the structured JSONL event stream to this file (ftss-node, ftss-store: append to it)")
	}
	if want&Admin != 0 {
		fs.StringVar(&t.adminAddr, "admin", "", "serve the admin plane (/metrics, /healthz, /events) on this address")
	}
	if want&Pprof != 0 {
		fs.StringVar(&t.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	}
	return t
}

// Open validates the parsed combination and opens what was set: the
// pprof listener (bound before its banner goes to out, so a taken port
// is a start-up error), the -events file, and the admin tail on the same
// JSONL stream. On error everything already opened is closed again.
func (t *Telemetry) Open(out io.Writer) error {
	if t.interval > 0 && t.metrics == "" {
		return fmt.Errorf("-metrics-interval needs -metrics FILE for the delta stream path")
	}
	t.out = out
	if t.pprofAddr != "" {
		ln, err := net.Listen("tcp", t.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		t.pprof = &http.Server{} // nil handler: the default mux net/http/pprof registered on
		go t.pprof.Serve(ln)
		fmt.Fprintf(out, "pprof listening on %s\n", ln.Addr())
	}
	var ws []io.Writer
	if t.events != "" {
		mode := os.O_TRUNC
		if t.appendEvents {
			mode = os.O_APPEND
		}
		f, err := os.OpenFile(t.events, mode|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return t.Close(err)
		}
		t.eventsF = f
		ws = append(ws, f)
	}
	if t.adminAddr != "" {
		t.tail = admin.NewTail(0)
		ws = append(ws, t.tail)
	}
	if len(ws) > 0 {
		t.eventsW = io.MultiWriter(ws...)
		t.sink = obs.NewJSONL(t.eventsW)
	}
	return nil
}

// HasMetrics reports whether -metrics was set, for binaries that build
// their registry only when someone will read it.
func (t *Telemetry) HasMetrics() bool { return t.metrics != "" }

// Sink is the session's event stream — the -events file and the admin
// tail see the same bytes — or nil when neither was asked for.
func (t *Telemetry) Sink() obs.Sink {
	if t.sink == nil {
		return nil
	}
	return t.sink
}

// EventsWriter is the raw stream under Sink, for callers that merge
// pre-rendered JSONL (ftss-soak -runs); nil when Sink is.
func (t *Telemetry) EventsWriter() io.Writer { return t.eventsW }

// Serve hands the session the system it reports on. snapshot renders the
// metrics registry: /metrics, every delta block and the exit snapshot
// all come from it. health renders /healthz. With -admin the plane is
// bound here and announced on Open's writer, behind label; with
// -metrics-interval the delta stream starts ticking.
func (t *Telemetry) Serve(label string, snapshot func() []byte, health func() (bool, []byte)) error {
	t.snapshot = snapshot
	if t.adminAddr != "" {
		adm, err := admin.Start(t.adminAddr, admin.Plane{Metrics: snapshot, Health: health, Tail: t.tail})
		if err != nil {
			return err
		}
		t.adm = adm
		fmt.Fprintf(t.out, "%sadmin plane on %s\n", label, adm.Addr())
	}
	if t.interval > 0 {
		f, err := os.Create(t.metrics + ".deltas")
		if err != nil {
			return err
		}
		t.deltasF, t.deltas = f, obs.NewDeltaWriter(f, snapshot)
		t.deltaStop = make(chan struct{})
		t.deltaWG.Add(1)
		go func() {
			defer t.deltaWG.Done()
			ticker := time.NewTicker(t.interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					t.deltas.Tick() // sticky: Close's final Tick reports it
				case <-t.deltaStop:
					return
				}
			}
		}()
	}
	return nil
}

// Close ends the session and returns runErr, or else the first telemetry
// error. Order: the final delta block, then the exit snapshot — taken
// from the same quiescent registry, so the blocks sum to the snapshot —
// written whether or not the run failed, because a failing run's
// telemetry is the one worth keeping; then the listeners; last the event
// stream, whose sticky write error (full disk, closed file) surfaces
// here instead of leaving a silently truncated file behind exit code 0.
func (t *Telemetry) Close(runErr error) error {
	err := runErr
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if t.deltas != nil {
		close(t.deltaStop)
		t.deltaWG.Wait()
		keep(t.deltas.Tick())
		keep(t.deltasF.Close())
	}
	if t.metrics != "" && t.snapshot != nil {
		keep(os.WriteFile(t.metrics, t.snapshot(), 0o644))
	}
	if t.adm != nil {
		t.adm.Close()
	}
	if t.pprof != nil {
		t.pprof.Close()
	}
	if t.sink != nil {
		if e := t.sink.Err(); e != nil {
			keep(fmt.Errorf("event stream: %w", e))
		}
	}
	if t.eventsF != nil {
		keep(t.eventsF.Close())
	}
	return err
}
