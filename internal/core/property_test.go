package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
)

// ---------- model-based robQ check ----------

// TestRobQModelBased drives the slot ring with random operations and
// compares it against a reference slice of trace indices.
func TestRobQModelBased(t *testing.T) {
	f := func(ops []uint8, capSeed uint8) bool {
		capacity := 1 + int(capSeed%16)
		q := newRobQ(capacity)
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				if len(ref) < capacity {
					q.push().idx = next
					ref = append(ref, next)
					next++
				}
			case 2: // pop
				if len(ref) > 0 {
					if q.popFront().idx != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 3: // random access
				if len(ref) > 0 {
					i := int(op) % len(ref)
					if q.at(i).idx != ref[i] {
						return false
					}
				}
			}
			if q.len() != len(ref) || q.full() != (len(ref) == capacity) ||
				q.empty() != (len(ref) == 0) {
				return false
			}
			if len(ref) > 0 && q.front().idx != ref[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// ---------- heap ordering properties ----------

func TestReadyHeapPopsInSeqOrder(t *testing.T) {
	f := func(seqs []int64) bool {
		var h readyHeap
		seqOf := map[uopRef]int64{}
		for i, s := range seqs {
			r := uopRef(i + 1)
			seqOf[r] = s
			h.push(&uop{seq: s, ref: r})
		}
		last := int64(math.MinInt64)
		for h.Len() > 0 {
			s := seqOf[h.pop()]
			if s < last {
				return false
			}
			last = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEventHeapPopDue(t *testing.T) {
	q := newRobQ(4)
	w := eventWheel{rob: q}
	var u [5]*uop
	for i := 1; i <= 4; i++ {
		u[i] = &q.push().uops[0]
		*u[i] = uop{seq: int64(i), ref: q.slots[i-1].base | 1}
	}
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	w.schedule(10, u3)
	w.schedule(5, u2)
	w.schedule(5, u1)
	w.schedule(200, u4) // beyond the window

	if got := w.popDue(4); got != nil {
		t.Fatalf("nothing due at 4, got %v", got.seq)
	}
	if got := w.popDue(5); got != u1 {
		t.Fatal("u1 due first (same-cycle ties break by seq)")
	}
	if got := w.popDue(10); got != u2 {
		t.Fatal("u2 due at 5, still pending at 10")
	}
	if got := w.popDue(10); got != u3 {
		t.Fatal("u3 due at 10")
	}
	if got := w.popDue(10); got != nil {
		t.Fatal("u4 not due yet")
	}
	if w.nextAt() != 200 {
		t.Fatalf("nextAt %d", w.nextAt())
	}
	if got := w.popDue(250); got != u4 {
		t.Fatal("u4 due at 200, popped at 250")
	}
	if w.nextAt() != -1 {
		t.Fatalf("empty wheel: nextAt %d", w.nextAt())
	}
}

// ---------- random-program soundness fuzzing ----------

// genProgram emits a random but well-formed program: bounded loops,
// aligned memory accesses over a few small regions, data-dependent
// branches — then every model must retire every load with the
// architecturally correct value (checked inside core.Run).
func genProgram(r *rand.Rand) string {
	var b strings.Builder
	regions := 3
	b.WriteString("\t.data\n")
	for i := 0; i < regions; i++ {
		fmt.Fprintf(&b, "arr%d:\n\t.space %d\n", i, 64+r.Intn(4)*32)
	}
	b.WriteString("\t.text\nmain:\n")
	for i := 0; i < regions; i++ {
		fmt.Fprintf(&b, "\tla $s%d, arr%d\n", i, i)
	}
	fmt.Fprintf(&b, "\tli $s7, %d\n", 200+r.Intn(200))
	b.WriteString("outer:\n")

	body := 10 + r.Intn(25)
	label := 0
	openLabel := -1
	tregs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"}
	reg := func() string { return tregs[r.Intn(len(tregs))] }
	base := func() string { return fmt.Sprintf("$s%d", r.Intn(regions)) }
	for i := 0; i < body; i++ {
		switch r.Intn(10) {
		case 0, 1: // word store
			fmt.Fprintf(&b, "\tsw %s, %d(%s)\n", reg(), 4*r.Intn(16), base())
		case 2, 3: // word load
			fmt.Fprintf(&b, "\tlw %s, %d(%s)\n", reg(), 4*r.Intn(16), base())
		case 4: // halfword pair
			off := 2 * r.Intn(32)
			fmt.Fprintf(&b, "\tsh %s, %d(%s)\n", reg(), off, base())
			fmt.Fprintf(&b, "\tlhu %s, %d(%s)\n", reg(), off, base())
		case 5: // byte ops
			off := r.Intn(64)
			fmt.Fprintf(&b, "\tsb %s, %d(%s)\n", reg(), off, base())
			fmt.Fprintf(&b, "\tlb %s, %d(%s)\n", reg(), off, base())
		case 6: // data-dependent forward branch (one open at a time)
			if openLabel < 0 {
				fmt.Fprintf(&b, "\tandi $t8, %s, %d\n", reg(), 1+r.Intn(7))
				fmt.Fprintf(&b, "\tbeqz $t8, fl%d\n", label)
				fmt.Fprintf(&b, "\taddi %s, %s, %d\n", reg(), reg(), r.Intn(9)-4)
				openLabel = label
				label++
			}
		case 7: // arithmetic
			fmt.Fprintf(&b, "\tadd %s, %s, %s\n", reg(), reg(), reg())
			fmt.Fprintf(&b, "\txor %s, %s, %s\n", reg(), reg(), reg())
		case 8: // multiply chain
			fmt.Fprintf(&b, "\tmul %s, %s, %s\n", reg(), reg(), reg())
		case 9: // shift
			fmt.Fprintf(&b, "\tsll %s, %s, %d\n", reg(), reg(), r.Intn(8))
		}
		if openLabel >= 0 && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "fl%d:\n", openLabel)
			openLabel = -1
		}
	}
	if openLabel >= 0 {
		fmt.Fprintf(&b, "fl%d:\n", openLabel)
	}
	b.WriteString("\taddi $s7, $s7, -1\n\tbnez $s7, outer\n\thalt\n")
	return b.String()
}

// TestRandomProgramSoundness is the generative end-to-end check: random
// programs, every model, every retired load value verified against the
// golden emulator by the core itself.
func TestRandomProgramSoundness(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(r)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		tr, err := emu.Run(p, 15_000)
		if err != nil {
			t.Fatalf("seed %d: emulate: %v", seed, err)
		}
		for _, m := range allModels {
			c, err := New(config.Default(m), tr)
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			st, err := c.Run()
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d/%s: %v", seed, m, err)
			}
			if st.Instructions != int64(len(tr.Entries)) {
				t.Fatalf("seed %d/%s: retired %d/%d", seed, m, st.Instructions, len(tr.Entries))
			}
		}
	}
}

// TestRandomProgramConfigMatrix runs a few random programs across the
// configuration axes (width, ROB, SB, consistency, predictor, prefetch,
// invalidations) to shake out interactions.
func TestRandomProgramConfigMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgs := []config.Config{
		config.Default(config.DMDP).WithIssueWidth(2),
		config.Default(config.DMDP).WithROB(64),
		config.Default(config.NoSQ).WithStoreBuffer(4),
		config.Default(config.DMDP).WithConsistency(config.RMO),
		config.Default(config.NoSQ).WithTAGE(true),
		config.Default(config.DMDP).WithPrefetch(true),
		config.Default(config.DMDP).WithInvalidations(500),
		config.Default(config.FnF).WithStoreBuffer(8),
		config.Default(config.Baseline).WithIssueWidth(4),
		config.Default(config.NoSQ).WithSilentStorePolicy(false),
	}
	for seed := 100; seed < 106; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(r)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, err := emu.Run(p, 10_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, cfg := range cfgs {
			c, err := New(cfg, tr)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, i, err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatalf("seed %d cfg %d (%s): %v", seed, i, cfg.Model, err)
			}
		}
	}
}
