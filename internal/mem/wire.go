package mem

import (
	"cmp"
	"slices"

	"slacksim/internal/wire"
)

// MaxPages bounds a decoded image (1 GiB of target memory), so a forged
// payload cannot make the page table allocate without limit.
const MaxPages = 1 << 18

// Encode appends the image for a run snapshot: the allocated pages in
// page-number order, so the decode rebuilds exactly those pages
// (AllocatedWords, which feeds the checkpoint cost model, survives the
// round trip). The image must be quiescent (no concurrent writers); the
// engine exports only at checkpoint boundaries, where that holds.
func (m *Memory) Encode(w *wire.Writer) {
	pages := m.pages()
	slices.SortFunc(pages, func(a, b entry) int { return cmp.Compare(a.pn, b.pn) })
	w.Uvarint(uint64(len(pages)))
	for _, e := range pages {
		w.Uvarint(e.pn)
		for _, v := range e.p {
			w.Uvarint(v)
		}
	}
}

// Decode reads an image written by Encode into m, in one pass. More than
// MaxPages pages, or a page number out of order or named twice, fails the
// Reader before that page is allocated.
func (m *Memory) Decode(r *wire.Reader) {
	m.Reset()
	n := r.Count("pages", MaxPages)
	var pg page
	for i, prev := 0, uint64(0); i < n; i++ {
		pn := r.Uvarint()
		if i > 0 && pn <= prev && r.Err() == nil {
			r.Failf("mem: page %#x out of order or named twice", pn)
		}
		for k := range pg {
			pg[k] = r.Uvarint()
		}
		if r.Err() != nil {
			return
		}
		*m.pageAt(pn, true) = pg
		prev = pn
	}
}
