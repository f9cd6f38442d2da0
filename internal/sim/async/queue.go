package async

import "math/bits"

// eventRing is the engine's event queue: a calendar queue (Brown, CACM
// 1988) specialised to a bounded window. Every queued event lies in
// [now, now+span], where span is the largest offset the engine can ever
// schedule (Config.span), so the ring needs no resizing and no overflow
// list.
//
// Time is cut into buckets of 2^shift µs, and absolute bucket t>>shift
// sits in ring slot (t>>shift) mod ringSize. The ring covers more than
// span plus one bucket width, so the at most ringSize buckets the window
// touches land in distinct slots, and walking the slots from now's
// bucket meets them in time order. A bitmap marks the non-empty slots.
//
// Each slot holds a list sorted by (at, push order), threaded through a
// slab of events by value. A push goes after every queued event of its
// time or earlier, so push order is the tie-break, exactly the seq
// tie-break of the binary heap this queue replaced: the pop sequence is
// the same.
type eventRing struct {
	shift uint
	slots [ringSize]slot
	full  [ringSize / 64]uint64 // bit s set: slots[s] is non-empty
	slab  []event               // slab[0] is the nil sentinel
	free  int32                 // head of the free list through event.next; 0 when empty
	n     int                   // queued events
}

// ringSize is the number of slots. The bucket width is the narrowest
// power of two that keeps the window inside the ring.
const ringSize = 1024

// slot is one bucket's list: slab indices of its first and last events,
// 0 when empty.
type slot struct{ head, tail int32 }

// init sizes an empty ring for events at most span after now.
func (q *eventRing) init(span Time) {
	q.slab = make([]event, 1, 64)
	for (ringSize-1)<<q.shift <= span {
		q.shift++
	}
}

func (q *eventRing) slotOf(t Time) int { return int(t>>q.shift) & (ringSize - 1) }

// push queues ev. The caller keeps ev inside the window.
func (q *eventRing) push(ev event) {
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	ev.next = 0
	q.slab[i] = ev
	q.n++

	s := q.slotOf(ev.at)
	b := &q.slots[s]
	switch {
	case b.head == 0:
		b.head, b.tail = i, i
		q.full[s>>6] |= 1 << (s & 63)
	case q.slab[b.tail].at <= ev.at:
		q.slab[b.tail].next = i
		b.tail = i
	case ev.at < q.slab[b.head].at:
		q.slab[i].next = b.head
		b.head = i
	default:
		// head.at <= ev.at < tail.at: insert after the last event at or
		// before ev.at; the tail stays.
		p := b.head
		for q.slab[q.slab[p].next].at <= ev.at {
			p = q.slab[p].next
		}
		q.slab[i].next = q.slab[p].next
		q.slab[p].next = i
	}
}

// head returns the slab index of the earliest queued event, or 0 when the
// queue is empty. Every queued event lies in [now, now+span].
func (q *eventRing) head(now Time) int32 {
	if q.n == 0 {
		return 0
	}
	s := q.slotOf(now)
	w := s >> 6
	m := q.full[w] &^ (1<<(s&63) - 1)
	for m == 0 {
		// Bounded: the queue is non-empty, and the wrap back to word
		// s>>6 reads its low bits, the window's latest slots.
		w = (w + 1) & (len(q.full) - 1)
		m = q.full[w]
	}
	return q.slots[w<<6|bits.TrailingZeros64(m)].head
}

// pop removes the event at slab index i, which head returned, and
// returns it. Its slab slot is zeroed, so the queue retains no payload.
// A slot's tail is read only while its head is set, so it is left as is.
// pop is small enough to inline into the engine's step, which saves a
// copy of the event.
func (q *eventRing) pop(i int32) (ev event) {
	ev = q.slab[i]
	q.slab[i] = event{next: q.free}
	q.free = i
	q.n--
	s := q.slotOf(ev.at)
	if q.slots[s].head = ev.next; ev.next == 0 {
		q.full[s>>6] &^= 1 << (s & 63)
	}
	return ev
}
