package congest

import "math/bits"

// The wake calendar is how a shard finds the nodes to step in a round
// without visiting the others. Three sources make a node due:
//
//   - it got mail: the deliver phase marks each receiver on its first
//     message of the round;
//   - it stepped and neither slept nor halted: it is due the next round;
//   - a timed wake-up falls due: Sleep and SleepThenHalt enter the wake
//     round in the shard's wake queue, and the step phase pops the round's
//     entries before it steps.
//
// The due set is a two-level bitmap over the shard's range, so the step
// phase visits due nodes in ascending id order — the order the inbox
// contract needs — at a cost of one summary word per 4096 nodes plus the
// due nodes themselves.

// dueSet is the set of nodes to step in the next step phase, as offsets
// into the shard's range.
type dueSet struct {
	words []uint64 // bit i%64 of words[i/64]: node lo+i is due
	sum   []uint64 // bit j%64 of sum[j/64]: words[j] is non-zero
}

func newDueSet(n int) dueSet {
	w := (n + 63) >> 6
	return dueSet{words: make([]uint64, w), sum: make([]uint64, (w+63)>>6)}
}

// add marks offset i due.
func (d *dueSet) add(i int32) {
	w := i >> 6
	if d.words[w] == 0 {
		d.sum[w>>6] |= 1 << (w & 63)
	}
	d.words[w] |= 1 << (i & 63)
}

// has reports whether offset i is due.
func (d *dueSet) has(i int32) bool { return d.words[i>>6]&(1<<(i&63)) != 0 }

// reset empties the set, visiting only its non-zero words.
func (d *dueSet) reset() {
	for j, s := range d.sum {
		for ; s != 0; s &= s - 1 {
			d.words[j<<6|bits.TrailingZeros64(s)] = 0
		}
		d.sum[j] = 0
	}
}

// wake is one calendar entry: node id wakes (or, for SleepThenHalt, halts)
// at round, packed as round<<32 | id so that the queue orders entries by
// round and then by id.
type wake uint64

func mkWake(round, id int32) wake { return wake(uint64(uint32(round))<<32 | uint64(uint32(id))) }
func (w wake) round() int32       { return int32(w >> 32) }
func (w wake) id() int32          { return int32(uint32(w)) }

// wakeQueue is a binary min-heap of timed wake-ups: the per-round buckets
// of the calendar, kept in one array. Entries go stale when their node is
// stepped early by mail and sleeps to another round, or halts; consumers
// drop a stale entry when it reaches the top, so an entry costs O(log k)
// to push and to retire.
type wakeQueue []wake

func (q *wakeQueue) push(w wake) {
	h := append(*q, w)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= w {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = w
	*q = h
}

func (q wakeQueue) top() wake { return q[0] }

func (q *wakeQueue) pop() {
	h := *q
	last := len(h) - 1
	w := h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if w <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if last > 0 {
		h[i] = w
	}
	*q = h
}
