package downlink

import (
	"fmt"
	"time"

	"radshield/internal/resultcache"
)

// Record is one payload held by the flight recorder until the ground
// acknowledges it.
type Record struct {
	VC       uint8
	Seq      uint32
	Payload  []byte
	Enqueued time.Duration // simulated enqueue time
}

// Recorder is the store-and-forward flight-recorder ring: a bounded,
// priority-partitioned buffer that owns every payload from enqueue to
// acknowledgement. It models NVRAM — a power cycle resets the
// transmitter's volatile ARQ state but never the recorder — so events
// captured mid-blackout survive to the next contact window.
//
// Capacity is a total record count. When full, Enqueue evicts the
// oldest record of the lowest-priority non-empty channel (the highest
// VC number), even if unacknowledged: bulk telemetry is sacrificed
// first and priority-0 events are the last to go. Evictions are
// counted and reported so silent loss is impossible.
//
// The recorder recycles its memory: channel queues keep their backing
// arrays, and the payload buffers of acknowledged and evicted records
// are reused by later enqueues, so a recorder in steady state allocates
// nothing.
//
// Recorder is not safe for concurrent use; the Transmitter serializes
// access.
type Recorder struct {
	capacity int
	perVC    [NumVC]recQueue // unacked records in seq order
	nextSeq  [NumVC]uint32
	count    int
	evicted  uint64
	ins      *Instruments

	free   [][]byte        // payload buffers ready for reuse
	slab   []byte          // the uncarved rest of the last payload slab
	victim Record          // the last eviction, lent to Enqueue's caller
	enc    resultcache.Enc // AppendSnapshot's encode scratch
}

// payloadBufMin is the smallest payload buffer the recorder allocates,
// so a recycled buffer fits any of the campaigns' event payloads.
const payloadBufMin = 64

// payloadSlabBufs is how many minimum-size payload buffers one slab
// holds: a recorder filling towards its peak occupancy allocates one
// slab per that many records instead of one buffer per record. The
// free list starts with room for one slab's buffers.
const payloadSlabBufs = 64

// recQueueMin is the room a channel's queue gets with its first record
// (the recorder's capacity, if that is smaller): a queue filling towards
// a backlog doubles from there instead of from one record, and no queue
// is sized to the whole ring up front.
const recQueueMin = 64

// recQueue is one channel's unacknowledged records, oldest first: the
// live records are buf[head:]. Releasing from the front advances head,
// and an append that would grow the array first slides the live
// records down, so the backing array lasts the recorder's lifetime.
type recQueue struct {
	buf  []Record
	head int
}

func (q *recQueue) live() []Record { return q.buf[q.head:] }

func (q *recQueue) push(rec Record) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, rec)
}

// popFront drops the n oldest records.
func (q *recQueue) popFront(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// NewRecorder returns a ring holding up to capacity records in total.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("downlink: recorder capacity %d must be ≥ 1", capacity)
	}
	return &Recorder{capacity: capacity}, nil
}

// setInstruments attaches the transmitter's metric handles.
func (r *Recorder) setInstruments(ins *Instruments) { r.ins = ins }

// Enqueue stores a copy of payload on vc, assigning the channel's next
// sequence number. A full ring evicts before storing; the evicted
// record (if any) is returned so callers can log the loss. The evicted
// record belongs to the recorder: the pointer is valid until the next
// Enqueue, and its payload stays intact through that Enqueue and is
// reused after it.
func (r *Recorder) Enqueue(vc uint8, payload []byte, now time.Duration) (Record, *Record, error) {
	if vc >= NumVC {
		return Record{}, nil, fmt.Errorf("%w: %d", ErrBadVC, vc)
	}
	if len(payload) > MaxPayload {
		return Record{}, nil, fmt.Errorf("%w: %d bytes", ErrBadLength, len(payload))
	}
	rec := Record{
		VC:       vc,
		Seq:      r.nextSeq[vc],
		Payload:  append(r.payloadBuf(len(payload)), payload...),
		Enqueued: now,
	}
	// Only now, with the new record's buffer taken, does the previous
	// victim's payload become reusable.
	r.release(r.victim.Payload)
	r.victim = Record{}
	var evicted *Record
	if r.count >= r.capacity {
		r.victim = r.evictOldestLowest()
		evicted = &r.victim
	}
	r.nextSeq[vc]++
	r.push(rec)
	r.count++
	r.ins.ringDepth(r.count)
	return rec, evicted, nil
}

// push appends rec to its channel's queue, giving the queue its
// starting room with its first record.
func (r *Recorder) push(rec Record) {
	q := &r.perVC[rec.VC]
	if q.buf == nil {
		q.buf = make([]Record, 0, min(recQueueMin, r.capacity))
	}
	q.push(rec)
}

// payloadBuf returns an empty buffer with room for n bytes, recycled
// when one is free. A new buffer for a payload of at most payloadBufMin
// bytes is carved from the current slab, its capacity ending where its
// neighbour's begins, so an append can never reach the neighbour; a
// larger payload gets a buffer of its own.
func (r *Recorder) payloadBuf(n int) []byte {
	if k := len(r.free); k > 0 {
		b := r.free[k-1]
		r.free = r.free[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	if n > payloadBufMin {
		return make([]byte, 0, n)
	}
	if len(r.slab) == 0 {
		r.slab = make([]byte, payloadSlabBufs*payloadBufMin)
		if r.free == nil {
			r.free = make([][]byte, 0, payloadSlabBufs)
		}
	}
	b := r.slab[:0:payloadBufMin]
	r.slab = r.slab[payloadBufMin:]
	return b
}

// release hands a payload buffer back for reuse.
func (r *Recorder) release(b []byte) {
	if b != nil {
		r.free = append(r.free, b)
	}
}

// evictOldestLowest removes the oldest record from the lowest-priority
// non-empty channel. The ring is only ever full when at least one
// channel has records, so a victim always exists.
func (r *Recorder) evictOldestLowest() Record {
	for vc := NumVC - 1; vc >= 0; vc-- {
		q := &r.perVC[vc]
		if len(q.live()) == 0 {
			continue
		}
		victim := q.live()[0]
		q.popFront(1)
		r.count--
		r.evicted++
		r.ins.ringEvicted()
		return victim
	}
	// Unreachable: count >= capacity ≥ 1 implies a non-empty channel.
	return Record{}
}

// Ack drops every record on vc with Seq < nextExpected and reports how
// many were released. Acknowledgement is cumulative (go-back-N).
func (r *Recorder) Ack(vc uint8, nextExpected uint32) int {
	if vc >= NumVC {
		return 0
	}
	q := &r.perVC[vc]
	recs := q.live()
	n := 0
	for n < len(recs) && recs[n].Seq < nextExpected {
		r.release(recs[n].Payload)
		n++
	}
	if n == 0 {
		return 0
	}
	q.popFront(n)
	r.count -= n
	r.ins.ringDepth(r.count)
	return n
}

// Pending returns vc's unacknowledged records in sequence order. The
// slice and the payloads alias the ring; callers must not retain them
// across Enqueue, Ack or Restore.
func (r *Recorder) Pending(vc uint8) []Record {
	if vc >= NumVC {
		return nil
	}
	return r.perVC[vc].live()
}

// Len returns the total number of unacknowledged records.
func (r *Recorder) Len() int { return r.count }

// Evicted returns how many unacknowledged records the ring has ever
// overwritten.
func (r *Recorder) Evicted() uint64 { return r.evicted }
