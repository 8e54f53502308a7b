package mem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := NewImage()
	if m.Word(0x1234) != 0 || m.Byte(0) != 0 || m.Half(0xffff_fffe) != 0 {
		t.Fatal("unwritten memory must read zero")
	}
}

func TestWordRoundTripLittleEndian(t *testing.T) {
	m := NewImage()
	m.SetWord(0x100, 0x11223344)
	if m.Byte(0x100) != 0x44 || m.Byte(0x103) != 0x11 {
		t.Fatal("not little endian")
	}
	if m.Word(0x100) != 0x11223344 {
		t.Fatal("word round trip failed")
	}
	if m.Half(0x100) != 0x3344 || m.Half(0x102) != 0x1122 {
		t.Fatal("half reads wrong")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := NewImage()
	addr := uint32(pageSize - 2) // word straddles the first page boundary
	m.SetWord(addr, 0xdeadbeef)
	if m.Word(addr) != 0xdeadbeef {
		t.Fatal("cross-page word failed")
	}
	if m.Pages() != 2 {
		t.Fatalf("expected 2 pages, got %d", m.Pages())
	}
}

func TestSizeDispatch(t *testing.T) {
	m := NewImage()
	m.Write(0x10, 4, 0xaabbccdd)
	if m.Read(0x10, 1) != 0xdd || m.Read(0x10, 2) != 0xccdd || m.Read(0x10, 4) != 0xaabbccdd {
		t.Fatal("sized reads wrong")
	}
	m.Write(0x10, 1, 0x11)
	if m.Read(0x10, 4) != 0xaabbcc11 {
		t.Fatal("byte write clobbered word")
	}
	m.Write(0x12, 2, 0x9988)
	if m.Read(0x10, 4) != 0x9988cc11 {
		t.Fatal("half write wrong")
	}
}

func TestSetBytesAndClone(t *testing.T) {
	m := NewImage()
	m.SetBytes(0x2000, []byte{1, 2, 3, 4, 5})
	c := m.Clone()
	m.SetByte(0x2000, 0xff)
	if c.Byte(0x2000) != 1 {
		t.Fatal("clone not independent")
	}
	if c.Byte(0x2004) != 5 {
		t.Fatal("clone lost data")
	}
}

func TestReadWriteProperty(t *testing.T) {
	m := NewImage()
	f := func(addr uint32, v uint32, size8 uint8) bool {
		size := uint32(1) << (size8 % 3) // 1, 2, 4
		m.Write(addr, size, v)
		mask := uint32(0xffffffff)
		if size < 4 {
			mask = 1<<(8*size) - 1
		}
		return m.Read(addr, size) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroValueImage(t *testing.T) {
	var m Image
	if m.Word(0x40) != 0 {
		t.Fatal("zero-value image must read zero")
	}
	m.SetByte(5, 1)
	m.Write(0x8000, 4, 0xcafef00d)
	if m.Byte(5) != 1 || m.Read(0x8000, 4) != 0xcafef00d {
		t.Fatal("zero-value image lost a write")
	}
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", m.Pages())
	}
}

func TestCloneWriteStaysInClone(t *testing.T) {
	src := NewImage()
	src.SetWord(0x1000, 0x11111111)
	a, b := src.Clone(), src.Clone()
	a.SetWord(0x1000, 0xaaaaaaaa)
	a.SetWord(0x9000, 0xa9a9a9a9) // a page the source never had
	if got := src.Word(0x1000); got != 0x11111111 {
		t.Fatalf("source sees clone write: %#x", got)
	}
	if got := b.Word(0x1000); got != 0x11111111 {
		t.Fatalf("sibling clone sees clone write: %#x", got)
	}
	if src.Pages() != 1 || b.Pages() != 1 || b.Word(0x9000) != 0 {
		t.Fatal("a page created in one clone leaked into its source or sibling")
	}
	if a.Word(0x1000) != 0xaaaaaaaa || a.Word(0x9000) != 0xa9a9a9a9 {
		t.Fatal("clone lost its own writes")
	}
}

func TestSourceWriteAfterCloneStaysInSource(t *testing.T) {
	src := NewImage()
	src.SetWord(0x1000, 0x11111111)
	src.SetWord(0x2000, 0x22222222)
	src.Word(0x1000) // leave the page in the translation caches
	c := src.Clone()

	src.Write(0x1000, 4, 0xdeadbeef)
	if got := src.Word(0x1000); got != 0xdeadbeef {
		t.Fatalf("source reads %#x after its own write, want 0xdeadbeef", got)
	}
	var pg [PageSize]byte
	pg[0] = 0x77
	src.SetPage(0x2000, &pg)
	if got := c.Word(0x1000); got != 0x11111111 {
		t.Fatalf("clone sees source Write after Clone: %#x", got)
	}
	if got := c.Word(0x2000); got != 0x22222222 {
		t.Fatalf("clone sees source SetPage after Clone: %#x", got)
	}
	if src.Word(0x1000) != 0xdeadbeef || src.Word(0x2000) != 0x77 {
		t.Fatal("source lost its own writes")
	}

	// A second clone freezes the source again, including the pages it
	// copied after the first.
	c2 := src.Clone()
	src.SetByte(0x1000, 0)
	if c2.Word(0x1000) != 0xdeadbeef || c.Word(0x1000) != 0x11111111 {
		t.Fatal("write after a second Clone leaked into a clone")
	}
}

func TestCloneCopiesNoPage(t *testing.T) {
	m := NewImage()
	for i := uint32(0); i < 1024; i++ {
		m.SetWord(i<<pageShift, i)
	}
	var c *Image
	allocs := testing.AllocsPerRun(10, func() { c = m.Clone() })
	// The image header and its page table: nothing proportional to the
	// page count is allocated page by page.
	if allocs != 2 {
		t.Fatalf("Clone of a 1024-page image made %.0f allocations, want 2", allocs)
	}
	if c.Pages() != 1024 || c.Word(1023<<pageShift) != 1023 {
		t.Fatal("clone lost pages")
	}
}

func TestConcurrentClones(t *testing.T) {
	src := NewImage()
	for i := uint32(0); i < 64; i++ {
		src.SetWord(i<<pageShift, i)
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := src.Clone()
			for i := uint32(0); i < 64; i++ {
				c.SetWord(i<<pageShift+4, uint32(g))
			}
			for i := uint32(0); i < 64; i++ {
				if c.Word(i<<pageShift) != i || c.Word(i<<pageShift+4) != uint32(g) {
					errs[g] = "clone read a foreign write"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
	for i := uint32(0); i < 64; i++ {
		if src.Word(i<<pageShift+4) != 0 {
			t.Fatal("a clone's write reached the shared source")
		}
	}
}

// refImage is the deep-copy reference model: a plain page map whose
// Clone copies every page.
type refImage map[uint32]*[PageSize]byte

func (r refImage) write(addr, size, v uint32) {
	for b := uint32(0); b < size; b++ {
		a := addr + b
		p := r[a>>pageShift]
		if p == nil {
			p = new([PageSize]byte)
			r[a>>pageShift] = p
		}
		p[a&pageMask] = byte(v >> (8 * b))
	}
}

func (r refImage) clone() refImage {
	c := refImage{}
	for pn, p := range r {
		cp := *p
		c[pn] = &cp
	}
	return c
}

func sameBytes(t *testing.T, m *Image, r refImage) {
	t.Helper()
	n := 0
	prev := int64(-1)
	m.ForEachPage(func(base uint32, data *[PageSize]byte) {
		if int64(base) <= prev {
			t.Fatalf("ForEachPage out of order: %#x after %#x", base, prev)
		}
		prev = int64(base)
		n++
		want := r[base>>pageShift]
		if want == nil || *want != *data {
			t.Fatalf("page %#x differs from the reference", base)
		}
	})
	if n != len(r) {
		t.Fatalf("image has %d pages, reference %d", n, len(r))
	}
}

func TestCopyOnWriteMatchesDeepCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		imgs := []*Image{NewImage()}
		refs := []refImage{{}}
		for op := 0; op < 300; op++ {
			k := rng.Intn(len(imgs))
			// A few pages spread over the address space, so writes
			// collide on shared pages and straddle page boundaries.
			addr := uint32(rng.Intn(6))<<(pageShift+4) | uint32(rng.Intn(3))<<pageShift | uint32(pageSize-8+rng.Intn(16))
			switch r := rng.Intn(10); {
			case r < 6:
				size := uint32(1) << rng.Intn(3)
				v := rng.Uint32()
				imgs[k].Read(addr, size) // the write must not leave this read stale
				imgs[k].Write(addr, size, v)
				refs[k].write(addr, size, v)
				if got, want := imgs[k].Read(addr, size), v&(1<<(8*size)-1); got != want {
					t.Fatalf("trial %d op %d: image %d reads %#x after writing %#x", trial, op, k, got, want)
				}
			case r < 8 && len(imgs) < 12:
				imgs = append(imgs, imgs[k].Clone())
				refs = append(refs, refs[k].clone())
			default:
				var pg [PageSize]byte
				rng.Read(pg[:64])
				base := addr &^ pageMask
				imgs[k].SetPage(base, &pg)
				cp := pg
				refs[k][base>>pageShift] = &cp
			}
			j := rng.Intn(len(imgs))
			probe := uint32(rng.Intn(6))<<(pageShift+4) | uint32(rng.Intn(3))<<pageShift | uint32(rng.Intn(pageSize))
			want := uint32(0)
			if p := refs[j][probe>>pageShift]; p != nil {
				want = uint32(p[probe&pageMask])
			}
			if got := imgs[j].Read(probe, 1); got != want {
				t.Fatalf("trial %d op %d: image %d byte %#x = %#x, want %#x", trial, op, j, probe, got, want)
			}
		}
		for k := range imgs {
			sameBytes(t, imgs[k], refs[k])
		}
	}
}
