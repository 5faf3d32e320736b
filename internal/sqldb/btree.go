package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// B+tree page types.
const (
	pgTableLeaf     = 1
	pgTableInterior = 2
	pgIndexLeaf     = 3
	pgIndexInterior = 4
)

// Page header layout:
//
//	[0]    page type
//	[1:3)  cell count
//	[3:7)  right pointer: next-leaf link (leaf) or rightmost child (interior)
//	[7:16) reserved
//	[16:)  cells, stored contiguously, each u16 length-prefixed
const (
	pgHdrSize  = 16
	maxPayload = PageSize - pgHdrSize - 64 // one cell must always fit
)

// initBtreePage formats a zeroed page.
func initBtreePage(data []byte, typ byte) {
	for i := range data[:pgHdrSize] {
		data[i] = 0
	}
	data[0] = typ
}

// tcell is a decoded table-tree cell: leaf = (rowid, record); interior =
// (maxRowid, child) meaning child holds rowids <= maxRowid.
type tcell struct {
	rowid   int64
	payload []byte // leaf only
	child   uint32 // interior only
}

// icell is a decoded index-tree cell: leaf = (key, rowid); interior =
// (sepKey, child).
type icell struct {
	key   []byte
	rowid int64
	child uint32
}

// --- Cell codecs -------------------------------------------------------------

// encodeTCell builds a table-cell body. Cells travel as bodies; only
// encodePage adds the on-page u16 length prefix.
func encodeTCell(typ byte, c tcell) []byte {
	if typ == pgTableLeaf {
		body := make([]byte, 8, 8+len(c.payload))
		binary.LittleEndian.PutUint64(body, uint64(c.rowid))
		return append(body, c.payload...)
	}
	body := make([]byte, 12)
	binary.LittleEndian.PutUint64(body, uint64(c.rowid))
	binary.LittleEndian.PutUint32(body[8:], c.child)
	return body
}

// encodeICell builds an index-cell body (see encodeTCell). Interior
// cells carry the full (key, rowid) separator so that duplicate keys
// still have a strict total order across children.
func encodeICell(typ byte, c icell) []byte {
	body := make([]byte, 4, 4+len(c.key)+12)
	binary.LittleEndian.PutUint32(body, uint32(len(c.key)))
	body = append(body, c.key...)
	var r [8]byte
	binary.LittleEndian.PutUint64(r[:], uint64(c.rowid))
	body = append(body, r[:]...)
	if typ == pgIndexLeaf {
		return body
	}
	var ch [4]byte
	binary.LittleEndian.PutUint32(ch[:], c.child)
	return append(body, ch[:]...)
}

// PageError reports B+tree page bytes that do not decode: a cell count
// or cell length that overruns the page, a cell too short for its page
// type, a page type the tree cannot hold, or page links that loop. Pages
// arrive from VFSCORE and RAMFS as plain bytes, so corruption below the
// pager surfaces here, and Exec returns it as an error.
type PageError struct {
	Page   uint32
	Reason string
}

func (e *PageError) Error() string {
	return fmt.Sprintf("sqldb: corrupt page %d: %s", e.Page, e.Reason)
}

// decodePage splits a page into its raw cell bodies, checking every count
// and length read from the page against the page, and every cell against
// the shape its page type's decoder reads.
func decodePage(data []byte) (typ byte, right uint32, cells [][]byte, err error) {
	if len(data) < pgHdrSize {
		return 0, 0, nil, &PageError{Reason: fmt.Sprintf("%d bytes, shorter than the page header", len(data))}
	}
	typ = data[0]
	if typ < pgTableLeaf || typ > pgIndexInterior {
		return 0, 0, nil, &PageError{Reason: fmt.Sprintf("unknown page type %d", typ)}
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	if n > (len(data)-pgHdrSize)/2 {
		return 0, 0, nil, &PageError{Reason: fmt.Sprintf("%d cells cannot fit", n)}
	}
	right = binary.LittleEndian.Uint32(data[3:])
	off := pgHdrSize
	// One spare slot: insert grows the decoded page by one cell.
	cells = make([][]byte, n, n+1)
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return 0, 0, nil, &PageError{Reason: fmt.Sprintf("cell %d of %d starts past the end", i, n)}
		}
		l := int(binary.LittleEndian.Uint16(data[off:]))
		if off+2+l > len(data) {
			return 0, 0, nil, &PageError{Reason: fmt.Sprintf("cell %d of %d bytes overruns the page", i, l)}
		}
		body := data[off+2 : off+2+l]
		if !cellFits(typ, body) {
			return 0, 0, nil, &PageError{Reason: fmt.Sprintf("cell %d of %d bytes is malformed for page type %d", i, l, typ)}
		}
		cells[i] = body
		off += 2 + l
	}
	return typ, right, cells, nil
}

// cellFits reports whether body has exactly the layout decodeTCell or
// decodeICell reads for a cell of page type typ.
func cellFits(typ byte, body []byte) bool {
	switch typ {
	case pgTableLeaf:
		return len(body) >= 8
	case pgTableInterior:
		return len(body) == 12
	}
	if len(body) < 4 {
		return false
	}
	want := 4 + uint64(binary.LittleEndian.Uint32(body)) + 8
	if typ == pgIndexInterior {
		want += 4
	}
	return uint64(len(body)) == want
}

// encodePage writes cells back into a page; returns false if they do not
// fit. Cell slices may alias the destination page (decodePage returns
// views into it), so the page is assembled in a scratch buffer first.
func encodePage(data []byte, typ byte, right uint32, cells [][]byte) bool {
	need := pgHdrSize
	for _, c := range cells {
		need += 2 + len(c)
	}
	if need > PageSize {
		return false
	}
	var scratch [PageSize]byte
	scratch[0] = typ
	binary.LittleEndian.PutUint16(scratch[1:], uint16(len(cells)))
	binary.LittleEndian.PutUint32(scratch[3:], right)
	off := pgHdrSize
	for _, c := range cells {
		binary.LittleEndian.PutUint16(scratch[off:], uint16(len(c)))
		copy(scratch[off+2:], c)
		off += 2 + len(c)
	}
	copy(data, scratch[:])
	return true
}

func decodeTCell(typ byte, body []byte) tcell {
	c := tcell{rowid: int64(binary.LittleEndian.Uint64(body))}
	if typ == pgTableLeaf {
		c.payload = body[8:]
	} else {
		c.child = binary.LittleEndian.Uint32(body[8:])
	}
	return c
}

func decodeICell(typ byte, body []byte) icell {
	kl := int(binary.LittleEndian.Uint32(body))
	c := icell{key: body[4 : 4+kl]}
	rest := body[4+kl:]
	c.rowid = int64(binary.LittleEndian.Uint64(rest))
	if typ != pgIndexLeaf {
		c.child = binary.LittleEndian.Uint32(rest[8:])
	}
	return c
}

// Btree is a B+tree rooted at a page. The root page number is stable
// (splits push content down), so the catalog can hold root references.
type Btree struct {
	p     *Pager
	root  uint32
	index bool
}

// NewTableTree opens a table B+tree at root.
func NewTableTree(p *Pager, root uint32) *Btree { return &Btree{p: p, root: root} }

// NewIndexTree opens an index B+tree at root.
func NewIndexTree(p *Pager, root uint32) *Btree { return &Btree{p: p, root: root, index: true} }

// CreateTableTree allocates and formats a new table tree; returns its root.
func CreateTableTree(p *Pager) uint32 {
	pg := p.Allocate()
	initBtreePage(p.Write(pg), pgTableLeaf)
	return pg
}

// CreateIndexTree allocates and formats a new index tree; returns its root.
func CreateIndexTree(p *Pager) uint32 {
	pg := p.Allocate()
	initBtreePage(p.Write(pg), pgIndexLeaf)
	return pg
}

// leafType/interiorType for this tree.
func (t *Btree) leafType() byte {
	if t.index {
		return pgIndexLeaf
	}
	return pgTableLeaf
}
func (t *Btree) interiorType() byte {
	if t.index {
		return pgIndexInterior
	}
	return pgTableInterior
}

// load decodes page pg of this tree. Bytes that do not decode, or a page
// type from the other kind of tree, unwind the statement with a
// *PageError.
func (t *Btree) load(pg uint32) (typ byte, right uint32, cells [][]byte) {
	typ, right, cells, err := t.decode(pg)
	if err != nil {
		panic(execErr{err})
	}
	return typ, right, cells
}

// loadAt is load for the page a walk reaches after following hops
// links, down from the root or along the leaves' right links. A walk
// without a loop follows fewer links than the file has pages, so one
// that follows more unwinds the statement with a *PageError instead of
// going round the loop forever.
func (t *Btree) loadAt(pg uint32, hops int) (typ byte, right uint32, cells [][]byte) {
	if hops >= int(t.p.NPages()) {
		panic(execErr{&PageError{Page: pg, Reason: fmt.Sprintf("walk followed %d links in a %d-page file (a cycle?)", hops, t.p.NPages())}})
	}
	return t.load(pg)
}

// decode is load returning the *PageError instead of unwinding.
func (t *Btree) decode(pg uint32) (typ byte, right uint32, cells [][]byte, err error) {
	typ, right, cells, err = decodePage(t.p.Get(pg))
	if err == nil && typ != t.leafType() && typ != t.interiorType() {
		err = &PageError{Reason: fmt.Sprintf("page type %d in a tree of types %d/%d", typ, t.leafType(), t.interiorType())}
	}
	if err != nil {
		err.(*PageError).Page = pg
	}
	return typ, right, cells, err
}

// cellKeyLess orders a search key against a cell.
func (t *Btree) searchCells(typ byte, cells [][]byte, key []byte, rowid int64) int {
	// Binary search for the first cell with cellKey >= key.
	t.p.e.Work(workNodeSearch)
	lo, hi := 0, len(cells)
	for lo < hi {
		t.p.e.Work(workPerCompare)
		mid := (lo + hi) / 2
		if t.cellLess(typ, cells[mid], key, rowid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cellLess reports whether the cell sorts strictly before (key, rowid).
func (t *Btree) cellLess(typ byte, body []byte, key []byte, rowid int64) bool {
	if t.index {
		c := decodeICell(typ, body)
		if cmp := bytes.Compare(c.key, key); cmp != 0 {
			return cmp < 0
		}
		return c.rowid < rowid
	}
	c := decodeTCell(typ, body)
	return c.rowid < rowid
}

// split describes a page split propagating upward: newPg holds the upper
// half; sepKey/sepRowid is the max key of the lower half.
type split struct {
	sepKey   []byte
	sepRowid int64
	newPg    uint32
}

// insert walks down from page pg, hops links below the root, and inserts
// the cell; returns a split if the page overflowed.
func (t *Btree) insert(pg uint32, hops int, key []byte, rowid int64, cell []byte) *split {
	typ, right, cells := t.loadAt(pg, hops)
	if typ == t.leafType() {
		pos := t.searchCells(typ, cells, key, rowid)
		// Replace in place on exact match (table trees: same rowid).
		if !t.index && pos < len(cells) {
			if c := decodeTCell(typ, cells[pos]); c.rowid == rowid {
				cells[pos] = cell
				return t.writeOrSplit(pg, typ, right, cells, pos)
			}
		}
		cells = append(cells, nil)
		copy(cells[pos+1:], cells[pos:])
		cells[pos] = cell
		return t.writeOrSplit(pg, typ, right, cells, pos)
	}
	// Interior: find child to descend into.
	pos := t.searchCells(typ, cells, key, rowid)
	var child uint32
	if pos < len(cells) {
		if t.index {
			child = decodeICell(typ, cells[pos]).child
		} else {
			child = decodeTCell(typ, cells[pos]).child
		}
	} else {
		child = right
	}
	sp := t.insert(child, hops+1, key, rowid, cell)
	if sp == nil {
		return nil
	}
	// The child split: child keeps the lower half (keys <= sep), the new
	// page holds the upper half. Insert a separator cell pointing at the
	// lower page and relink.
	var sepCell []byte
	if t.index {
		sepCell = encodeICell(typ, icell{key: sp.sepKey, rowid: sp.sepRowid, child: child})
	} else {
		sepCell = encodeTCell(typ, tcell{rowid: sp.sepRowid, child: child})
	}
	// The existing cell at pos (or right pointer) must now point at newPg.
	if pos < len(cells) {
		if t.index {
			c := decodeICell(typ, cells[pos])
			c.child = sp.newPg
			cells[pos] = encodeICell(typ, c)
		} else {
			c := decodeTCell(typ, cells[pos])
			c.child = sp.newPg
			cells[pos] = encodeTCell(typ, c)
		}
	} else {
		right = sp.newPg
	}
	cells = append(cells, nil)
	copy(cells[pos+1:], cells[pos:])
	cells[pos] = sepCell
	return t.writeOrSplit(pg, typ, right, cells, pos)
}

// writeOrSplit stores cells into pg, splitting if they overflow. hint is
// the position that was just modified (unused, kept for clarity).
func (t *Btree) writeOrSplit(pg uint32, typ byte, right uint32, cells [][]byte, hint int) *split {
	if encodePage(t.p.Write(pg), typ, right, cells) {
		return nil
	}
	// Split: lower half stays in pg, upper half moves to a fresh page.
	// Cell slices alias pg's buffer, which the encodePage calls below
	// rewrite with shifted offsets — so every cell that outlives the
	// rewrite (the separator, and the halves themselves) is copied first.
	for i, c := range cells {
		cells[i] = append(make([]byte, 0, len(c)), c...)
	}
	mid := len(cells) / 2
	if mid == 0 {
		mid = 1
	}
	lower, upper := cells[:mid], cells[mid:]
	newPg := t.p.Allocate()

	isLeaf := typ == t.leafType()
	var newRight, lowRight uint32
	if isLeaf {
		// Leaf split: sibling links pg -> newPg -> old right.
		newRight = right
		lowRight = newPg
	} else {
		// Interior split: the separator between halves is pushed up; the
		// lower page's rightmost child becomes the separator's child.
		sep := upper[0]
		upper = upper[1:]
		newRight = right
		if t.index {
			lowRight = decodeICell(typ, sep).child
		} else {
			lowRight = decodeTCell(typ, sep).child
		}
		// Separator key travels up via the returned split.
		if !encodePage(t.p.Write(newPg), typ, newRight, upper) {
			panic("sqldb: interior split still overflows")
		}
		if !encodePage(t.p.Write(pg), typ, lowRight, lower) {
			panic("sqldb: interior split lower overflows")
		}
		sp := &split{newPg: newPg}
		if t.index {
			c := decodeICell(typ, sep)
			sp.sepKey = append([]byte{}, c.key...)
			sp.sepRowid = c.rowid
		} else {
			sp.sepRowid = decodeTCell(typ, sep).rowid
		}
		return t.maybeGrowRoot(pg, sp)
	}
	if !encodePage(t.p.Write(newPg), typ, newRight, upper) {
		panic("sqldb: leaf split still overflows")
	}
	if !encodePage(t.p.Write(pg), typ, lowRight, lower) {
		panic("sqldb: leaf split lower overflows")
	}
	sp := &split{newPg: newPg}
	last := lower[len(lower)-1]
	if t.index {
		c := decodeICell(typ, last)
		sp.sepKey = append([]byte{}, c.key...)
		sp.sepRowid = c.rowid
	} else {
		sp.sepRowid = decodeTCell(typ, last).rowid
	}
	return t.maybeGrowRoot(pg, sp)
}

// maybeGrowRoot handles a split reaching the root: the root's content
// moves to a fresh page so the root page number stays stable.
func (t *Btree) maybeGrowRoot(pg uint32, sp *split) *split {
	if pg != t.root || sp == nil {
		return sp
	}
	// Move current root content to a new page.
	moved := t.p.Allocate()
	typ, right, cells := t.load(t.root)
	if !encodePage(t.p.Write(moved), typ, right, cells) {
		panic("sqldb: root move overflows")
	}
	var sepCell []byte
	it := t.interiorType()
	if t.index {
		sepCell = encodeICell(it, icell{key: sp.sepKey, rowid: sp.sepRowid, child: moved})
	} else {
		sepCell = encodeTCell(it, tcell{rowid: sp.sepRowid, child: moved})
	}
	if !encodePage(t.p.Write(t.root), it, sp.newPg, [][]byte{sepCell}) {
		panic("sqldb: new root overflows")
	}
	return nil
}

// --- Table-tree API ----------------------------------------------------------

// InsertRow inserts or replaces the record at rowid.
func (t *Btree) InsertRow(rowid int64, record []byte) error {
	if t.index {
		return fmt.Errorf("sqldb: InsertRow on index tree")
	}
	if len(record) > maxPayload {
		return fmt.Errorf("sqldb: record of %d bytes exceeds page capacity", len(record))
	}
	t.p.e.Work(workRecEncode)
	cell := encodeTCell(pgTableLeaf, tcell{rowid: rowid, payload: record})
	sp := t.insert(t.root, 0, nil, rowid, cell)
	if sp != nil {
		panic("sqldb: unhandled root split")
	}
	return nil
}

// findLeaf descends to the leaf that would contain (key, rowid); returns
// the leaf page number.
func (t *Btree) findLeaf(key []byte, rowid int64) uint32 {
	pg := t.root
	for hops := 0; ; hops++ {
		typ, right, cells := t.loadAt(pg, hops)
		if typ == t.leafType() {
			return pg
		}
		pos := t.searchCells(typ, cells, key, rowid)
		if pos < len(cells) {
			if t.index {
				pg = decodeICell(typ, cells[pos]).child
			} else {
				pg = decodeTCell(typ, cells[pos]).child
			}
		} else {
			pg = right
		}
	}
}

// GetRow fetches the record stored at rowid, or nil.
func (t *Btree) GetRow(rowid int64) []byte {
	leaf := t.findLeaf(nil, rowid)
	typ, _, cells := t.load(leaf)
	pos := t.searchCells(typ, cells, nil, rowid)
	if pos < len(cells) {
		if c := decodeTCell(typ, cells[pos]); c.rowid == rowid {
			t.p.e.Work(workRecDecode)
			out := make([]byte, len(c.payload))
			copy(out, c.payload)
			return out
		}
	}
	return nil
}

// DeleteRow removes rowid; reports whether it existed.
func (t *Btree) DeleteRow(rowid int64) bool {
	leaf := t.findLeaf(nil, rowid)
	typ, right, cells := t.load(leaf)
	pos := t.searchCells(typ, cells, nil, rowid)
	if pos >= len(cells) || decodeTCell(typ, cells[pos]).rowid != rowid {
		return false
	}
	cells = append(cells[:pos], cells[pos+1:]...)
	if !encodePage(t.p.Write(leaf), typ, right, cells) {
		panic("sqldb: delete overflow")
	}
	return true
}

// MaxRowid returns the largest rowid in the table (0 when empty).
func (t *Btree) MaxRowid() int64 {
	pg := t.root
	for hops := 0; ; hops++ {
		typ, right, cells := t.loadAt(pg, hops)
		if typ == t.leafType() {
			for pg2 := right; pg2 != 0; hops++ {
				// Rightmost leaf is reached via right links only when
				// descending interior rightmost pointers, so right here
				// should be 0; guard anyway.
				typ, right, cells = t.loadAt(pg2, hops)
				pg2 = right
			}
			if len(cells) == 0 {
				return 0
			}
			return decodeTCell(t.leafType(), cells[len(cells)-1]).rowid
		}
		pg = right
	}
}

// ScanTable walks all rows in rowid order; fn returns false to stop.
func (t *Btree) ScanTable(fn func(rowid int64, record []byte) bool) {
	pg := t.leftmostLeaf()
	for hops := 0; pg != 0; hops++ {
		typ, right, cells := t.loadAt(pg, hops)
		for _, body := range cells {
			c := decodeTCell(typ, body)
			t.p.e.Work(workRecDecode)
			if !fn(c.rowid, c.payload) {
				return
			}
		}
		pg = right
	}
}

// ScanTableFrom walks rows with rowid >= start in order.
func (t *Btree) ScanTableFrom(start int64, fn func(rowid int64, record []byte) bool) {
	pg := t.findLeaf(nil, start)
	for hops := 0; pg != 0; hops++ {
		typ, right, cells := t.loadAt(pg, hops)
		for _, body := range cells {
			c := decodeTCell(typ, body)
			if c.rowid < start {
				continue
			}
			t.p.e.Work(workRecDecode)
			if !fn(c.rowid, c.payload) {
				return
			}
		}
		pg = right
	}
}

func (t *Btree) leftmostLeaf() uint32 {
	pg := t.root
	for hops := 0; ; hops++ {
		typ, right, cells := t.loadAt(pg, hops)
		if typ == t.leafType() {
			return pg
		}
		if len(cells) > 0 {
			if t.index {
				pg = decodeICell(typ, cells[0]).child
			} else {
				pg = decodeTCell(typ, cells[0]).child
			}
		} else {
			pg = right
		}
	}
}

// --- Index-tree API ----------------------------------------------------------

// InsertKey adds (key, rowid) to the index.
func (t *Btree) InsertKey(key []byte, rowid int64) error {
	if !t.index {
		return fmt.Errorf("sqldb: InsertKey on table tree")
	}
	if len(key) > maxPayload {
		return fmt.Errorf("sqldb: index key too large")
	}
	t.p.e.Work(workRecEncode)
	cell := encodeICell(pgIndexLeaf, icell{key: key, rowid: rowid})
	sp := t.insert(t.root, 0, key, rowid, cell)
	if sp != nil {
		panic("sqldb: unhandled root split")
	}
	return nil
}

// DeleteKey removes (key, rowid); reports whether it existed.
func (t *Btree) DeleteKey(key []byte, rowid int64) bool {
	leaf := t.findLeaf(key, rowid)
	typ, right, cells := t.load(leaf)
	pos := t.searchCells(typ, cells, key, rowid)
	if pos >= len(cells) {
		return false
	}
	c := decodeICell(typ, cells[pos])
	if !bytes.Equal(c.key, key) || c.rowid != rowid {
		return false
	}
	cells = append(cells[:pos], cells[pos+1:]...)
	if !encodePage(t.p.Write(leaf), typ, right, cells) {
		panic("sqldb: index delete overflow")
	}
	return true
}

// ScanIndexRange walks index entries with lo <= key <= hi (nil bounds are
// open); fn returns false to stop.
func (t *Btree) ScanIndexRange(lo, hi []byte, fn func(key []byte, rowid int64) bool) {
	var pg uint32
	if lo == nil {
		pg = t.leftmostLeaf()
	} else {
		pg = t.findLeaf(lo, -1<<62)
	}
	for hops := 0; pg != 0; hops++ {
		typ, right, cells := t.loadAt(pg, hops)
		for _, body := range cells {
			c := decodeICell(typ, body)
			if lo != nil && bytes.Compare(c.key, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(c.key, hi) > 0 {
				return
			}
			t.p.e.Work(workRecDecode)
			if !fn(c.key, c.rowid) {
				return
			}
		}
		pg = right
	}
}

// --- Integrity check ---------------------------------------------------------

// Check validates the tree's structural invariants (ordering within and
// across pages, leaf sibling chain, reachable pages formatted correctly).
// It returns a list of problems, empty when healthy.
func (t *Btree) Check() []string {
	var problems []string
	var lastKey []byte
	var lastRowid int64 = -1 << 62
	var leaves, links []uint32 // leaves in key order, and their right links
	var walk func(pg uint32, depth int)
	walk = func(pg uint32, depth int) {
		if depth > 64 {
			problems = append(problems, "depth > 64 (cycle?)")
			return
		}
		typ, right, cells, err := t.decode(pg)
		if err != nil {
			problems = append(problems, err.Error())
			return
		}
		if typ == t.leafType() {
			leaves, links = append(leaves, pg), append(links, right)
			for _, body := range cells {
				if t.index {
					c := decodeICell(typ, body)
					if lastKey != nil {
						if cmp := bytes.Compare(lastKey, c.key); cmp > 0 || (cmp == 0 && lastRowid >= c.rowid) {
							problems = append(problems, fmt.Sprintf("page %d: index keys out of order", pg))
						}
					}
					lastKey = append(make([]byte, 0, len(c.key)), c.key...)
					lastRowid = c.rowid
				} else {
					c := decodeTCell(typ, body)
					if c.rowid <= lastRowid {
						problems = append(problems, fmt.Sprintf("page %d: rowids out of order (%d after %d)", pg, c.rowid, lastRowid))
					}
					lastRowid = c.rowid
					if _, err := DecodeRecord(c.payload); err != nil {
						problems = append(problems, fmt.Sprintf("page %d rowid %d: %v", pg, c.rowid, err))
					}
				}
			}
			return
		}
		for _, body := range cells {
			var child uint32
			if t.index {
				child = decodeICell(typ, body).child
			} else {
				child = decodeTCell(typ, body).child
			}
			walk(child, depth+1)
		}
		if right == 0 {
			problems = append(problems, fmt.Sprintf("page %d: interior without rightmost child", pg))
		} else {
			walk(right, depth+1)
		}
	}
	walk(t.root, 0)
	if len(leaves) == 0 {
		problems = append(problems, "no leaves reachable")
	}
	for i, pg := range leaves {
		want := uint32(0)
		if i+1 < len(leaves) {
			want = leaves[i+1]
		}
		if links[i] != want {
			problems = append(problems, fmt.Sprintf("page %d: right link %d, next leaf %d", pg, links[i], want))
		}
	}
	return problems
}
