package congest

import "sync/atomic"

// pageShift sets the page length: 32 entries, so a page of Contexts is
// 2.5 KB and a run that reaches a ball of a grid-like graph pays for little
// more than the ball, while a page table costs a quarter byte per vertex.
const (
	pageShift = 5
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// Pages is an n-entry array allocated page by page on first touch. An
// untouched page costs one nil pointer and reads as zero values, so a run
// that reaches only a ball of the graph pays for the pages the ball spans.
// Entries never move, so pointers returned by At stay valid.
//
// Distinct entries may be touched concurrently: a page is installed with a
// compare-and-swap, and a goroutine that loses the race uses the winner's
// page. Concurrent access to one entry needs the caller's own
// synchronization, as with a slice.
type Pages[T any] struct {
	n   int
	dir []atomic.Pointer[[pageLen]T]
}

// NewPages returns an n-entry paged array with no page allocated.
func NewPages[T any](n int) *Pages[T] {
	return &Pages[T]{n: n, dir: make([]atomic.Pointer[[pageLen]T], (n+pageMask)>>pageShift)}
}

// At returns a pointer to entry i, allocating its page on first touch.
func (p *Pages[T]) At(i int) *T {
	d := &p.dir[i>>pageShift]
	pg := d.Load()
	if pg == nil {
		pg = install(d, new([pageLen]T))
	}
	return &pg[i&pageMask]
}

// install publishes a new page in the empty directory entry d and returns
// the page d holds: pg, or the page of a goroutine that installed one
// first.
func install[P any](d *atomic.Pointer[P], pg *P) *P {
	if d.CompareAndSwap(nil, pg) {
		return pg
	}
	return d.Load()
}

// Touched calls f for every entry on a touched page, in ascending index
// order. Entries on untouched pages are zero values and are skipped.
func (p *Pages[T]) Touched(f func(i int, v *T)) {
	for k := range p.dir {
		pg := p.dir[k].Load()
		if pg == nil {
			continue
		}
		base := k << pageShift
		for j := range min(pageLen, p.n-base) {
			f(base+j, &pg[j])
		}
	}
}

// nodePage is the engine state of pageLen consecutive vertices: their
// Contexts and the bandwidth use of their CSR rows, allocated together on
// the first touch of any of them. edges[i] is the use of slot base+i.
type nodePage struct {
	ctx   [pageLen]Context
	edges []edgeUse
	base  int32
}

// edgeUse is one directed edge's bandwidth use in the round stamped.
type edgeUse struct {
	stamp uint32
	bits  int32
}

// node returns the Context of vertex u, allocating its page on first
// touch.
func (n *Network) node(u int32) *Context {
	pg := n.pages[u>>pageShift].Load()
	if pg == nil {
		pg = n.newPage(u)
	}
	return &pg.ctx[u&pageMask]
}

// newPage installs the page of vertex u and returns it. Pages are installed
// like those of Pages, because shards are not page-aligned: two shards may
// touch one page's first nodes at once.
func (n *Network) newPage(u int32) *nodePage {
	lo := u &^ pageMask
	hi := min(int(lo)+pageLen, n.g.N())
	return install(&n.pages[u>>pageShift], &nodePage{base: n.off[lo], edges: make([]edgeUse, n.off[hi]-n.off[lo])})
}
