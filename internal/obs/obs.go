// Package obs is the telemetry layer: typed instruments (counters,
// gauges, fixed-bucket histograms) registered in a Registry with stable,
// sorted snapshot output, plus a structured event stream (Sink) the
// runtimes feed round- and poll-stamped records into.
//
// The package is stdlib-only and allocation-lean by design. Instrument
// methods are nil-receiver-safe no-ops, so a hot path holds a single
// nil-checked hook struct and pays one predictable branch when telemetry
// is disabled — the disabled path must add zero allocations, which the
// AllocsPerRun guards in the instrumented packages pin down.
//
// Determinism contract: instruments never read the wall clock or any
// other ambient state; every recorded value is handed in by the caller,
// stamped with round or poll counts in deterministic packages. Counter
// adds and histogram observations are commutative, so totals merged from
// a worker pool are identical for any worker count, and Registry
// snapshots are emitted in sorted name order — byte-identical output is
// a property of the representation, not of the schedule.
//
//ftss:conc instruments are written from live goroutines; snapshots stay name-sorted and byte-stable
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument. The zero
// Counter is ready to use; a nil *Counter ignores all updates, so hook
// structs can leave instruments unset.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-or-maximum instrument. Set is last-write-wins
// and therefore only deterministic from a single goroutine; SetMax is a
// commutative fold, safe to use from worker pools and the live runtime.
// A nil *Gauge ignores all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger — the high-water-mark
// update. It is commutative: any interleaving yields the same final
// value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds, plus an overflow bucket. Bucket bounds are frozen at
// registration; observations are commutative, so histograms merged from
// a worker pool are schedule-independent. A nil *Histogram ignores all
// updates.
type Histogram struct {
	bounds []uint64 // ascending inclusive upper bounds
	counts []atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Quantile returns the upper bound of the bucket holding the p-quantile
// observation (rank ⌈p·Count⌉ in the sorted stream), and whether that
// rank landed in a finite bucket. The answer is a bucket bound, not an
// interpolation, so it is integral and byte-stable: two histograms with
// equal bucket counts report equal quantiles on every platform. An empty
// histogram reports (0, false); a rank in the overflow bucket reports
// the largest finite bound and false.
func (h *Histogram) Quantile(p float64) (uint64, bool) {
	if h == nil {
		return 0, false
	}
	total := h.n.Load()
	if total == 0 {
		return 0, false
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(total))
	if float64(rank) < p*float64(total) || rank == 0 {
		rank++ // ⌈p·total⌉, and at least the first observation
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return bound, true
		}
	}
	if len(h.bounds) == 0 {
		return 0, false
	}
	return h.bounds[len(h.bounds)-1], false
}

// BoundTag renders Quantile's second return for report lines: "le"
// when the rank landed in a finite bucket, "gt" when it spilled past
// the last bound. One shared helper so every binary prints quantile
// flags the same way.
func BoundTag(ok bool) string {
	if ok {
		return "le"
	}
	return "gt"
}

// Merge folds src's observations into h bucket by bucket. Bounds must
// match (same panic contract as Registry re-registration). Merging is
// commutative and associative, so per-shard histograms folded in any
// order yield identical totals; fold them in a fixed order anyway when
// the target registry's creation order matters. Nil receiver or source
// is a no-op.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	if len(h.bounds) != len(src.bounds) {
		panic("obs: histogram merge with different bounds")
	}
	for i := range h.bounds {
		if h.bounds[i] != src.bounds[i] {
			panic("obs: histogram merge with different bounds")
		}
	}
	for i := range src.counts {
		if v := src.counts[i].Load(); v > 0 {
			h.counts[i].Add(v)
		}
	}
	h.sum.Add(src.sum.Load())
	h.n.Add(src.n.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// instrument is the Registry's uniform view of one named metric.
type instrument interface {
	// appendLine appends this instrument's stable one-line rendering.
	appendLine(buf []byte, name string) []byte
}

func (c *Counter) appendLine(buf []byte, name string) []byte {
	buf = append(buf, "counter "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, c.Value(), 10)
	return append(buf, '\n')
}

func (g *Gauge) appendLine(buf []byte, name string) []byte {
	buf = append(buf, "gauge "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, g.Value(), 10)
	return append(buf, '\n')
}

func (h *Histogram) appendLine(buf []byte, name string) []byte {
	buf = append(buf, "histogram "...)
	buf = append(buf, name...)
	buf = append(buf, " count="...)
	buf = strconv.AppendUint(buf, h.n.Load(), 10)
	buf = append(buf, " sum="...)
	buf = strconv.AppendUint(buf, h.sum.Load(), 10)
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i < len(h.bounds) {
			buf = append(buf, " le_"...)
			buf = strconv.AppendUint(buf, h.bounds[i], 10)
		} else {
			buf = append(buf, " le_inf"...)
		}
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, cum, 10)
	}
	return append(buf, '\n')
}

// Registry holds named instruments. Names live in one namespace:
// registering the same name as two different instrument kinds (or a
// histogram with different bounds) panics, because it is a wiring bug,
// not a runtime condition. The accessors are get-or-create and safe for
// concurrent use.
type Registry struct {
	mu sync.Mutex
	//ftss:guardedby mu
	ins map[string]instrument
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{ins: make(map[string]instrument)}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.ins[name]; ok {
		c, ok := in.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as a non-counter", name))
		}
		return c
	}
	c := &Counter{}
	r.ins[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.ins[name]; ok {
		g, ok := in.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as a non-gauge", name))
		}
		return g
	}
	g := &Gauge{}
	r.ins[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending inclusive bucket bounds if needed. Re-access
// must pass the same bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending: %v", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.ins[name]; ok {
		h, ok := in.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as a non-histogram", name))
		}
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	h := &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.ins[name] = h
	return h
}

// Merge folds every instrument of src into r under prefix+name:
// counters add, histograms merge bucket-wise, gauges fold with SetMax
// (the only commutative gauge combination — merged gauges are high-water
// marks). Source names are visited in sorted order and the fold
// operations commute, so merging per-shard registries in a fixed shard
// order after a worker pool joins yields a byte-identical Snapshot for
// any worker count.
func (r *Registry) Merge(prefix string, src *Registry) {
	if src == nil {
		return
	}
	src.mu.Lock()
	names := make([]string, 0, len(src.ins))
	for name := range src.ins {
		names = append(names, name)
	}
	sort.Strings(names)
	srcIns := make([]instrument, len(names))
	for i, name := range names {
		srcIns[i] = src.ins[name]
	}
	src.mu.Unlock()
	for i, name := range names {
		switch in := srcIns[i].(type) {
		case *Counter:
			r.Counter(prefix + name).Add(in.Value())
		case *Gauge:
			r.Gauge(prefix + name).SetMax(in.Value())
		case *Histogram:
			r.Histogram(prefix+name, in.bounds).Merge(in)
		}
	}
}

// Snapshot renders every instrument as one line, sorted by name — the
// stable text format the -metrics flags write and the determinism tests
// byte-compare.
func (r *Registry) Snapshot() []byte {
	r.mu.Lock()
	names := make([]string, 0, len(r.ins))
	for name := range r.ins {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	var buf []byte
	for _, name := range names {
		r.mu.Lock()
		in := r.ins[name]
		r.mu.Unlock()
		buf = in.appendLine(buf, name)
	}
	return buf
}
