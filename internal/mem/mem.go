// Package mem provides the sparse little-endian memory image shared by the
// functional emulator and the timing model (which maintains a second image
// reflecting only *committed* stores, so speculation outcomes can be
// decided exactly).
//
// Images are copy-on-write: Clone shares every page with its source, and
// either image copies a shared 4 KB page the first time it writes it. A
// clone therefore costs one slice copy of page pointers, and a run pays
// only for the pages it writes. The page pointers that ForEachPage hands
// out may be shared with other images and must be treated as read-only.
package mem

import (
	"slices"
	"sync/atomic"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// PageSize is the granularity of the sparse image, exported for
// serializers that persist images page by page.
const PageSize = pageSize

// pageRef is one allocated page. owner is the stamp of the image that may
// write data in place; any other image holding the same data pointer
// copies it first.
type pageRef struct {
	pn    uint32
	owner uint64
	data  *[pageSize]byte
}

// Image is a sparse 32-bit byte-addressable memory. The zero value is an
// empty image; unwritten bytes read as zero.
type Image struct {
	pages []pageRef // ascending by pn

	// stamp marks the pages this image owns: a page is private exactly
	// when its owner equals stamp. Clone raises the source's stamp above
	// every owner in the pages it shares and gives the clone that same
	// stamp, so neither image owns a shared page, and pages either one
	// creates afterwards are its own. It is atomic because several
	// goroutines may clone one image at once; Clone writes nothing else
	// in the source.
	stamp atomic.Uint64

	// One-slot translation caches: accesses cluster heavily within a page
	// (and a multi-byte access probes the page table once per byte
	// without them). The write slot also remembers the stamp it was
	// checked under, so a Clone since then sends the next write back
	// through the copy-on-write check.
	lastPN   uint32
	lastPage *[pageSize]byte
	wPN      uint32
	wPage    *[pageSize]byte
	wStamp   uint64
}

// NewImage returns an empty memory image.
func NewImage() *Image { return &Image{} }

// find returns the index of page pn in m.pages, or the index at which it
// would be inserted and ok=false. It is written out because
// slices.BinarySearchFunc, with its comparison callback, is about 4x
// slower on this path.
func (m *Image) find(pn uint32) (int, bool) {
	lo, hi := 0, len(m.pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.pages[mid].pn < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.pages) && m.pages[lo].pn == pn
}

// page returns the page holding addr for reading, or nil if it was never
// written.
func (m *Image) page(addr uint32) *[pageSize]byte {
	pn := addr >> pageShift
	if p := m.lastPage; p != nil && m.lastPN == pn {
		return p
	}
	i, ok := m.find(pn)
	if !ok {
		return nil
	}
	p := m.pages[i].data
	m.lastPN, m.lastPage = pn, p
	return p
}

// writablePage returns a page holding addr that this image owns, creating
// it, or copying it if it is shared, first.
func (m *Image) writablePage(addr uint32) *[pageSize]byte {
	pn := addr >> pageShift
	stamp := m.stamp.Load()
	if p := m.wPage; p != nil && m.wPN == pn && m.wStamp == stamp {
		return p
	}
	i, ok := m.find(pn)
	var p *[pageSize]byte
	switch {
	case !ok:
		p = new([pageSize]byte)
		m.pages = slices.Insert(m.pages, i, pageRef{pn: pn, owner: stamp, data: p})
	case m.pages[i].owner != stamp:
		p = new([pageSize]byte)
		*p = *m.pages[i].data
		m.pages[i] = pageRef{pn: pn, owner: stamp, data: p}
	default:
		p = m.pages[i].data
	}
	m.lastPN, m.lastPage = pn, p
	m.wPN, m.wPage, m.wStamp = pn, p, stamp
	return p
}

// Byte returns the byte at addr.
func (m *Image) Byte(addr uint32) byte {
	if p := m.page(addr); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// SetByte stores b at addr.
func (m *Image) SetByte(addr uint32, b byte) {
	m.writablePage(addr)[addr&pageMask] = b
}

// Word returns the little-endian 32-bit word at addr (which may be
// unaligned; the emulator enforces alignment separately).
func (m *Image) Word(addr uint32) uint32 {
	return uint32(m.Byte(addr)) |
		uint32(m.Byte(addr+1))<<8 |
		uint32(m.Byte(addr+2))<<16 |
		uint32(m.Byte(addr+3))<<24
}

// SetWord stores the little-endian 32-bit word v at addr.
func (m *Image) SetWord(addr uint32, v uint32) {
	m.SetByte(addr, byte(v))
	m.SetByte(addr+1, byte(v>>8))
	m.SetByte(addr+2, byte(v>>16))
	m.SetByte(addr+3, byte(v>>24))
}

// Half returns the little-endian 16-bit halfword at addr.
func (m *Image) Half(addr uint32) uint16 {
	return uint16(m.Byte(addr)) | uint16(m.Byte(addr+1))<<8
}

// SetHalf stores the little-endian 16-bit halfword v at addr.
func (m *Image) SetHalf(addr uint32, v uint16) {
	m.SetByte(addr, byte(v))
	m.SetByte(addr+1, byte(v>>8))
}

// Read reads size (1, 2 or 4) bytes at addr as a zero-extended value.
func (m *Image) Read(addr, size uint32) uint32 {
	switch size {
	case 1:
		return uint32(m.Byte(addr))
	case 2:
		return uint32(m.Half(addr))
	default:
		return m.Word(addr)
	}
}

// Write writes the low size (1, 2 or 4) bytes of v at addr.
func (m *Image) Write(addr, size, v uint32) {
	switch size {
	case 1:
		m.SetByte(addr, byte(v))
	case 2:
		m.SetHalf(addr, uint16(v))
	default:
		m.SetWord(addr, v)
	}
}

// SetBytes copies data into memory starting at addr.
func (m *Image) SetBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.SetByte(addr+uint32(i), b)
	}
}

// Clone returns an independent copy of the image. The copy shares every
// page with m: it costs one copy of the page table and no page, and from
// then on m and the clone each copy a shared page the first time they
// write it, so a write to either never shows in the other. Clone only
// reads m's pages, so any number of goroutines may clone one image at
// once, provided none of them writes it meanwhile.
func (m *Image) Clone() *Image {
	c := &Image{pages: slices.Clone(m.pages)}
	c.stamp.Store(m.stamp.Add(1))
	return c
}

// Pages returns the number of allocated pages (for footprint reporting).
func (m *Image) Pages() int { return len(m.pages) }

// ForEachPage calls fn for every allocated page in ascending page-number
// order with the page's base address and contents. The deterministic
// order makes serialized images canonical. The page may be shared with
// clones of the image, so fn must not write through the pointer or keep
// it past a later write to the image.
func (m *Image) ForEachPage(fn func(base uint32, data *[PageSize]byte)) {
	for _, p := range m.pages {
		fn(p.pn<<pageShift, p.data)
	}
}

// PageCopy returns a copy of the allocated page whose base address is
// base (page-aligned), or ok=false when that page was never written.
// Unlike the read accessors it does not touch the one-slot translation
// cache, so it is safe to call on an image shared by concurrent readers.
func (m *Image) PageCopy(base uint32) (*[PageSize]byte, bool) {
	i, ok := m.find(base >> pageShift)
	if !ok {
		return nil, false
	}
	cp := new([pageSize]byte)
	*cp = *m.pages[i].data
	return cp, true
}

// SetPage installs a copy of a full page at the page-aligned base
// address, overwriting any existing page (the deserialization counterpart
// of ForEachPage).
func (m *Image) SetPage(base uint32, data *[PageSize]byte) {
	*m.writablePage(base) = *data
}
