package core

import (
	"testing"
)

// FuzzRobQ drives the ROB slot ring against a reference slice: each
// input byte selects push / popFront / clear / release, and after every
// operation the ring's length, emptiness, fullness, front and full
// contents (via at) must match the model, and every instruction must be
// found by its seq (bySeq) while one that left the ring must not. This
// is the wraparound property test — head chases around the ring across
// clears and refills, and seqs keep rising across clears as they do
// across pipeline flushes. release hands the ring to the pool, and two
// capacities run each input, so a queue may be offered a pooled ring of
// the other size (which it must not take) or one left full of another
// queue's stale state; every slot must keep its own index.
func FuzzRobQ(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 1, 0, 2, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, capacity := range []int{5, 20} {
			fuzzRobQ(t, ops, capacity)
		}
	})
}

func fuzzRobQ(t *testing.T, ops []byte, capacity int) {
	q := newRobQ(capacity)
	var model []int // trace indices; instruction k has seq k+1
	next := 0
	for _, op := range ops {
		switch op % 4 {
		case 0: // push
			if q.full() {
				continue
			}
			in := q.push()
			if in.idx != 0 || in.seq != 0 {
				t.Fatalf("pushed slot not zeroed: idx %d seq %d", in.idx, in.seq)
			}
			in.idx, in.seq = next, int64(next+1)
			model = append(model, next)
			next++
		case 1: // popFront
			if q.empty() {
				continue
			}
			if got := q.popFront(); got.idx != model[0] {
				t.Fatalf("popFront returned idx %d, want %d", got.idx, model[0])
			}
			model = model[1:]
		case 2: // clear (pipeline flush)
			q.clear()
			model = model[:0]
		case 3: // release (the run returns), then keep using the queue
			q.release()
			model = model[:0]
		}
		if len(q.slots) != 0 && len(q.slots) != capacity {
			t.Fatalf("ring of %d slots, capacity %d", len(q.slots), capacity)
		}
		for i := range q.slots {
			if q.slots[i].base != uopRef(i<<3) {
				t.Fatalf("slot %d names itself %d", i, q.slots[i].base>>3)
			}
		}
		if q.len() != len(model) {
			t.Fatalf("len %d, model %d", q.len(), len(model))
		}
		if q.empty() != (len(model) == 0) || q.full() != (len(model) == capacity) {
			t.Fatalf("empty/full disagree with model size %d", len(model))
		}
		if len(model) > 0 && q.front().idx != model[0] {
			t.Fatalf("front idx %d, want %d", q.front().idx, model[0])
		}
		for i, want := range model {
			if q.at(i).idx != want {
				t.Fatalf("at(%d) idx %d, want %d", i, q.at(i).idx, want)
			}
		}
		for seq := int64(0); seq <= int64(next)+1; seq++ {
			in := q.bySeq(seq)
			live := len(model) > 0 && seq >= int64(model[0]+1) && seq <= int64(model[len(model)-1]+1)
			switch {
			case live && (in == nil || in.seq != seq):
				t.Fatalf("bySeq(%d) missed a live instruction", seq)
			case !live && in != nil:
				t.Fatalf("bySeq(%d) found idx %d, which is not in flight", seq, in.idx)
			}
		}
	}
	// Drain what's left: order must survive.
	for len(model) > 0 {
		if got := q.popFront(); got.idx != model[0] {
			t.Fatalf("drain returned idx %d, want %d", got.idx, model[0])
		}
		model = model[1:]
	}
	if !q.empty() {
		t.Fatal("queue not empty after drain")
	}
	q.release() // the run returns: the next capacity may be offered this ring
}
