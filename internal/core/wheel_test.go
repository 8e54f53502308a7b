package core

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent and refHeap are the reference event queue: a plain binary
// heap ordered by (cycle, uop seq), the order the event wheel must
// reproduce.
type refEvent struct {
	at, seq int64
	ref     uopRef
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// popDue is the reference for eventWheel.popDue.
func (h *refHeap) popDue(now int64) uopRef {
	if h.Len() == 0 || (*h)[0].at > now {
		return 0
	}
	return heap.Pop(h).(refEvent).ref
}

func (h refHeap) nextAt() int64 {
	if len(h) == 0 {
		return -1
	}
	return h[0].at
}

// TestEventWheelMatchesReferenceHeap drives the event wheel and the
// reference heap with the same random sequences of schedule, pop, flush
// and nextAt, and requires the same answers throughout. The schedules
// cover events past the window (the overflow heap), events due at or
// before the current cycle (late events), and seqs scheduled out of
// order; time advances a cycle at a time or jumps to just before the
// next event, as fastForward does, or further when nothing is pending.
func TestEventWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := newRobQ(64)
		for !q.full() {
			q.push()
		}
		w := eventWheel{rob: q}
		var ref refHeap
		// Idle uops, handed out in seq order but scheduled in random
		// order, so a younger uop is often scheduled first.
		var idle, ready []*uop
		for i := range q.slots {
			for k := range q.slots[i].uops {
				idle = append(idle, &q.slots[i].uops[k])
				q.slots[i].uops[k].ref = q.slots[i].base | uopRef(k+1)
			}
		}
		byRef := func(rf uopRef) *uop { return q.uop(rf) }
		var seq, now int64
		now = r.Int63n(1000)
		if seed%2 == 0 {
			w.base = now // a wheel that has already run for a while
		}
		// horizon picks an event's distance from now: late, short,
		// window-edge or DRAM-like.
		horizon := func() int64 {
			switch r.Intn(8) {
			case 0:
				return -r.Int63n(5) // due at or before now
			case 1, 2, 3:
				return 1 + r.Int63n(16)
			case 4, 5:
				return wheelSize - 4 + r.Int63n(8)
			default:
				return wheelSize + r.Int63n(400)
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := r.Intn(10); {
			case op < 4: // dispatch: an idle uop becomes ready to schedule
				for n := r.Intn(4); n > 0 && len(idle) > 0; n-- {
					u := idle[len(idle)-1]
					idle = idle[:len(idle)-1]
					seq++
					u.seq = seq
					ready = append(ready, u)
				}
				fallthrough
			case op < 6: // schedule a random ready uop
				if len(ready) == 0 {
					continue
				}
				i := r.Intn(len(ready))
				u := ready[i]
				ready[i] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				at := now + horizon()
				w.schedule(at, u)
				heap.Push(&ref, refEvent{at: at, seq: u.seq, ref: u.ref})
			case op < 8: // drain some or all of what is due
				for n := r.Intn(6); ; n-- {
					want := ref.popDue(now)
					got := w.popDue(now)
					if (got == nil) != (want == 0) || got != nil && got.ref != want {
						t.Fatalf("seed %d step %d: popDue(%d) = %v, reference %v", seed, step, now, got, want)
					}
					if got == nil || n == 0 {
						break
					}
					idle = append(idle, got)
				}
			case op < 9: // advance time
				if next := ref.nextAt(); r.Intn(2) == 0 && next > now+1 {
					now += 1 + r.Int63n(next-now-1) // fastForward's jump
				} else if next < 0 && r.Intn(4) == 0 {
					now += 1 + r.Int63n(5000) // nothing pending
				} else {
					now++
				}
			default:
				if r.Intn(20) == 0 { // pipeline flush
					w.clear()
					for _, e := range ref {
						idle = append(idle, byRef(e.ref))
					}
					ref = ref[:0]
				}
			}
			if got, want := w.nextAt(), ref.nextAt(); got != want {
				t.Fatalf("seed %d step %d: nextAt %d, reference %d", seed, step, got, want)
			}
		}
	}
}
