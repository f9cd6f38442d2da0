package main

import "fmt"

// opRecord is what a client knows about one op once its reply arrived.
type opRecord struct {
	key     int32 // index into the key table
	from    int32 // shard the reply named (the reply frame's sender)
	echoed  bool  // the reply carried the request's ID
	ok      bool  // the swap applied
	old     uint64
	val     int64
	version uint64 // register state in the reply
	rval    int64
}

// observed is one repetition as seen from outside the store: every
// completed op per client in issue order, and the store's own account
// read after the last reply.
type observed struct {
	keys      []string
	attempted int
	ops       [][]opRecord
	shardFor  func(key string) int
	get       func(key string) (version uint64, val int64)

	applied, casOK, casMismatch uint64
}

// maxReasons bounds how many violations a verdict spells out; the count
// is always complete.
const maxReasons = 8

type verdict struct {
	failed  int
	casOK   int // swaps the clients saw apply
	reasons []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.reasons) < maxReasons {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
}

// check judges a versioned-CAS history from the client side. Every
// successful swap names its predecessor version, so the successful
// swaps of a key must be exactly versions 1..m, each once, and the
// register must end at version m holding that swap's value.
func check(o observed) verdict {
	var v verdict
	type swap struct {
		version uint64
		val     int64
	}
	swaps := make([][]swap, len(o.keys))
	touched := make([]bool, len(o.keys))
	completed := 0
	for c, ops := range o.ops {
		completed += len(ops)
		for n, r := range ops {
			key := o.keys[r.key]
			touched[r.key] = true
			switch {
			case !r.echoed:
				v.fail("client %d op %d: reply carries another request's ID", c, n)
			case int(r.from) != o.shardFor(key):
				v.fail("client %d op %d: %s answered by shard %d, routed to %d", c, n, key, r.from, o.shardFor(key))
			case r.ok && (r.version != r.old+1 || r.rval != r.val):
				v.fail("client %d op %d: swap of %s from v%d applied as v%d val %d, sent %d", c, n, key, r.old, r.version, r.rval, r.val)
			case !r.ok && r.version <= r.old:
				v.fail("client %d op %d: swap of %s from v%d refused at v%d", c, n, key, r.old, r.version)
			}
			if r.ok {
				v.casOK++
				swaps[r.key] = append(swaps[r.key], swap{r.version, r.val})
			}
		}
	}
	if lost := o.attempted - completed; lost != 0 {
		v.failed += lost
		v.reasons = append(v.reasons, fmt.Sprintf("%d of %d ops got no reply", lost, o.attempted))
	}
	for k, ss := range swaps {
		if !touched[k] {
			continue
		}
		m := uint64(len(ss))
		seen := make([]bool, m+1)
		var top int64
		for _, s := range ss {
			if s.version < 1 || s.version > m {
				v.fail("%s: swap to v%d, but only %d swaps applied (a version was skipped)", o.keys[k], s.version, m)
				continue
			}
			if seen[s.version] {
				v.fail("%s: two swaps both applied as v%d", o.keys[k], s.version)
			}
			seen[s.version] = true
			if s.version == m {
				top = s.val
			}
		}
		if ver, val := o.get(o.keys[k]); ver != m || (m > 0 && val != top) {
			v.fail("%s: ends at v%d val %d, clients saw v%d val %d", o.keys[k], ver, val, m, top)
		}
	}
	if o.applied != uint64(o.attempted) {
		v.fail("store applied %d ops, clients sent %d", o.applied, o.attempted)
	}
	if o.casOK != uint64(v.casOK) {
		v.fail("store counts %d applied swaps, clients saw %d", o.casOK, v.casOK)
	}
	if o.casOK+o.casMismatch != o.applied {
		v.fail("store counters: %d ok + %d mismatch != %d applied", o.casOK, o.casMismatch, o.applied)
	}
	return v
}
