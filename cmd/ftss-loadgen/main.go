// Command ftss-loadgen drives an ftss-store server with a seeded
// closed-loop workload: -clients connections, each sending -ops
// compare-and-swap requests one at a time (the next op leaves only
// after the previous reply lands). Keys are drawn per client from a
// seeded generator — uniform over -keys registers, or Zipf-skewed when
// -skew > 1 so a few hot keys absorb most of the traffic and CAS
// contention becomes visible as cas_mismatch. Every client remembers
// the last version each key showed it (a reply doubles as a versioned
// read), so its next CAS on that key is its honest best guess and
// mismatches measure real cross-client races, not client naivety.
//
// Wall-clock op latency lands in an obs histogram; the final report
// prints byte-stable p50/p99 lines from Histogram.Quantile plus
// ok/mismatch totals, and -metrics writes the full snapshot. The key
// stream is a pure function of (-seed, client index), so two runs
// against equal servers submit identical op sequences per client.
//
// Usage:
//
//	ftss-loadgen -addr 127.0.0.1:7400 [-clients 4] [-ops 200]
//	             [-keys 64] [-skew 0] [-seed 1]
//	             [-metrics FILE] [-trace FILE] [-pprof ADDR]
//
// -trace gives every op a deterministic span ID derived from (-seed,
// client, op index), carries it to the server in the traced wire frame
// (a store run with -trace links its server-side spans under it), and
// writes one client.rtt span per op as sorted JSONL — feed it to
// ftss-tracev together with the server's trace file.
//
//ftss:conc one goroutine per client; results merge through atomic instruments
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"ftss/internal/cli"
	"ftss/internal/obs"
	"ftss/internal/wire"
)

// wallBounds bucket wall-clock op latency in microseconds: local TCP
// round-trips sit in the hundreds of µs, a corruption-stalled shard in
// the hundreds of ms.
var wallBounds = []uint64{
	50, 100, 200, 500, 1000, 2000, 5000, 10_000,
	20_000, 50_000, 100_000, 500_000, 2_000_000,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftss-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ftss-loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "ftss-store server address (required)")
	clients := fs.Int("clients", 4, "concurrent closed-loop connections")
	ops := fs.Int("ops", 200, "ops per client")
	keys := fs.Int("keys", 64, "distinct keys in the workload")
	skew := fs.Float64("skew", 0, "Zipf skew exponent; <=1 means uniform keys")
	seed := fs.Int64("seed", 1, "workload seed; key streams derive from (seed, client)")
	traceFile := fs.String("trace", "", "trace every op and write client.rtt span JSONL to this file")
	tel := cli.Bind(fs, cli.Metrics|cli.Pprof)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *clients <= 0 || *ops <= 0 || *keys <= 0 {
		return fmt.Errorf("-clients, -ops, and -keys must be positive")
	}
	if err := tel.Open(out); err != nil {
		return err
	}
	defer func() { err = tel.Close(err) }()

	reg := obs.NewRegistry()
	opsC := reg.Counter("loadgen.ops")
	okC := reg.Counter("loadgen.cas_ok")
	missC := reg.Counter("loadgen.cas_mismatch")
	errsC := reg.Counter("loadgen.errors")
	latH := reg.Histogram("loadgen.latency_us", wallBounds)
	if err := tel.Serve("", reg.Snapshot, nil); err != nil {
		return err
	}
	var col *obs.Collector
	if *traceFile != "" {
		col = obs.NewCollector()
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(*clients)
	for c := 0; c < *clients; c++ {
		go func(c int) {
			defer wg.Done()
			if err := client(*addr, c, *ops, *keys, *skew, *seed, opsC, okC, missC, latH, col, start); err != nil {
				errsC.Inc()
				fmt.Fprintf(os.Stderr, "ftss-loadgen: client %d: %v\n", c, err)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if col != nil {
		tf, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		err = col.WriteJSONL(tf)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loadgen: trace %d spans, %d collisions -> %s\n",
			col.Len(), col.Collisions(), *traceFile)
	}
	fmt.Fprintf(out, "loadgen: clients=%d keys=%d skew=%g ops=%d cas_ok=%d cas_mismatch=%d errors=%d\n",
		*clients, *keys, *skew, opsC.Value(), okC.Value(), missC.Value(), errsC.Value())
	p50, ok50 := latH.Quantile(0.50)
	p99, ok99 := latH.Quantile(0.99)
	thr := uint64(0)
	if us := elapsed.Microseconds(); us > 0 {
		thr = opsC.Value() * 1_000_000 / uint64(us)
	}
	fmt.Fprintf(out, "loadgen: latency p50=%dµs(%s) p99=%dµs(%s) elapsed=%dms throughput=%d ops/s (wall)\n",
		p50, obs.BoundTag(ok50), p99, obs.BoundTag(ok99), elapsed.Milliseconds(), thr)
	if errsC.Value() > 0 {
		return fmt.Errorf("%d clients failed", errsC.Value())
	}
	return nil
}

// client runs one closed-loop connection: a seeded key stream, one op
// in flight, per-key version memory fed from the replies. With col
// non-nil every request carries a deterministic span ID over the wire
// and lands one client.rtt span stamped in wall µs since start.
func client(addr string, c, ops, keys int, skew float64, seed int64,
	opsC, okC, missC *obs.Counter, latH *obs.Histogram,
	col *obs.Collector, start time.Time) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	pick := func() int { return rng.Intn(keys) }
	if skew > 1 && keys > 1 {
		z := rand.NewZipf(rng, skew, 1, uint64(keys-1))
		pick = func() int { return int(z.Uint64()) }
	}

	ver := make(map[string]uint64, keys)
	var buf []byte
	for n := 0; n < ops; n++ {
		key := fmt.Sprintf("k%04d", pick())
		req := wire.CASRequest{
			ID:  uint64(c)<<32 | uint64(n),
			Old: ver[key],
			Val: int64(c)*1_000_000 + int64(n),
			Key: key,
		}
		var span obs.SpanID
		if col != nil {
			span = obs.DeriveSpanID(seed, uint64(c), uint64(n))
			col.Claim(span, fmt.Sprintf("client%03d/%d", c, n))
		}
		buf, err = wire.AppendFrameTrace(buf[:0], 0, uint64(span), req)
		if err != nil {
			return err
		}
		sent := time.Now()
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		_, _, payload, err := wire.ReadFrameTrace(conn)
		if err != nil {
			return err
		}
		rep, ok := payload.(wire.CASReply)
		if !ok || rep.ID != req.ID {
			return fmt.Errorf("op %d: bad reply %T %+v", n, payload, payload)
		}
		latH.Observe(uint64(time.Since(sent).Microseconds()))
		if col != nil {
			col.Record(obs.Span{
				ID: span, Phase: "client.rtt", P: c,
				Start: uint64(sent.Sub(start).Microseconds()),
				End:   uint64(time.Since(start).Microseconds()),
			})
		}
		opsC.Inc()
		if rep.OK {
			okC.Inc()
		} else {
			missC.Inc()
		}
		ver[key] = rep.Version
	}
	return nil
}
