// Fixture for the poolescape analyzer: pooled memory must not outlive
// its pool's Reset/Release, SnapshotInto/CopyInto must copy rather than
// alias, and recycled slices must be cleared before free-listing.
package poolescape

type entry struct{ buf []int }

type pool struct {
	free []*entry
	live []*entry
}

// Get returns a pool-owned entry; the caller must hand it back before
// the pool's Reset.
//
//slacksim:pooled
func (p *pool) Get() *entry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	return &entry{}
}

// retain stores a pooled entry under its own pool: fine.
func (p *pool) retain() {
	e := p.Get()
	p.live = append(p.live, e)
}

var leaked *entry

// useGlobal parks a pooled entry in package-level state.
func useGlobal(p *pool) {
	e := p.Get()
	leaked = e // want `stored to package-level variable leaked`
}

var leakedList []*entry

// appendGlobal escapes through an append into package-level state.
func appendGlobal(p *pool) {
	e := p.Get()
	leakedList = append(leakedList, e) // want `appended to package-level variable leakedList`
}

type cache struct {
	held *entry
	all  []*entry
}

// crossRoot stores p's entry under a different owner.
func (c *cache) crossRoot(p *pool) {
	e := p.Get()
	c.held = e // want `rooted at c`
}

// crossRootAppend does the same through append.
func (c *cache) crossRootAppend(p *pool) {
	e := p.Get()
	c.all = append(c.all, e) // want `appended to c.all, rooted at c`
}

// take returns pooled memory without declaring the ownership transfer.
func take(p *pool) *entry {
	return p.Get() // want `not annotated`
}

// takeDeclared documents the transfer, so callers inherit the contract.
//
//slacksim:pooled
func takeDeclared(p *pool) *entry {
	return p.Get()
}

// identity returns its argument — pooled in, pooled out.
func identity(e *entry) *entry { return e }

// throughHelper launders a pooled value through a returning helper; the
// taint survives the call.
func throughHelper(p *pool) *entry {
	e := p.Get()
	e2 := identity(e)
	return e2 // want `not annotated`
}

var stash *entry

// keep stores its argument globally; passing pooled memory to it is an
// escape at the call site.
func keep(e *entry) { stash = e }

func escapesViaHelper(p *pool) {
	e := p.Get()
	keep(e) // want `stores its argument in package-level state`
}

// consume only reads its argument: passing pooled memory to it is fine.
func consume(e *entry) int { return len(e.buf) }

func borrowOK(p *pool) int {
	e := p.Get()
	return consume(e)
}

func ship(p *pool, ch chan *entry) {
	ch <- p.Get() // want `sent on a channel`
}

func capture(p *pool) func() int {
	e := p.Get()
	return func() int {
		return consume(e) // want `captured by a closure`
	}
}

// deposit stores a pooled entry into a field of the entry's own pool via
// a tainted local: the roots match, so no finding.
func deposit(p *pool) {
	e := p.Get()
	e.buf = append(e.buf, 1)
	p.live = append(p.live, e)
}

// gpool is generic: its pooled Get is called through an instantiation.
type gpool[T any] struct{ free []*T }

//slacksim:pooled
func (p *gpool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return new(T)
}

var leakedInt *int

func useGlobalGeneric(p *gpool[int]) {
	v := p.Get()
	leakedInt = v // want `stored to package-level variable leakedInt`
}
