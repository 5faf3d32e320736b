package sqldb

import (
	"errors"
	"fmt"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/vfscore"
)

// withPager boots a minimal system and hands fn a pager with the given
// cache capacity.
func withPager(t *testing.T, cacheCap int, fn func(p *Pager)) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeUnikraft, Extra: []*cubicle.Component{{
		Name: "APP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	err := s.RunAs("APP", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["APP"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		ioBuf := e.HeapAlloc(PageSize)
		p, err := OpenPager(e, vfs, "/bt.db", ioBuf, cacheCap)
		if err != nil {
			t.Fatal(err)
		}
		fn(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexTreeDuplicateKeys(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		root := CreateIndexTree(p)
		tr := NewIndexTree(p, root)
		const n = 3000
		for i := 1; i <= n; i++ {
			key := EncodeKey([]Value{Int(int64(i % 97))})
			if err := tr.InsertKey(key, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity: %v", problems[:min(4, len(problems))])
		}
		for _, k := range []int64{0, 7, 50, 96} {
			want := 0
			for i := 1; i <= n; i++ {
				if int64(i%97) == k {
					want++
				}
			}
			key := EncodeKey([]Value{Int(k)})
			hi := append(append([]byte{}, key...), 0xFF)
			got := 0
			tr.ScanIndexRange(key, hi, func(kb []byte, rowid int64) bool {
				got++
				return true
			})
			if got != want {
				t.Errorf("k=%d: got %d entries, want %d", k, got, want)
			}
		}
		// Delete every third entry and recheck.
		for i := 3; i <= n; i += 3 {
			key := EncodeKey([]Value{Int(int64(i % 97))})
			if !tr.DeleteKey(key, int64(i)) {
				t.Fatalf("delete (%d,%d) missed", i%97, i)
			}
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity after delete: %v", problems[:min(4, len(problems))])
		}
	})
}

func TestTableTreeHeavy(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		root := CreateTableTree(p)
		tr := NewTableTree(p, root)
		const n = 4000
		// Interleaved ascending/descending inserts force splits at both
		// ends.
		for i := 0; i < n/2; i++ {
			rec := EncodeRecord([]Value{Int(int64(i)), Text(fmt.Sprintf("fwd-%d", i))})
			if err := tr.InsertRow(int64(i), rec); err != nil {
				t.Fatal(err)
			}
			j := n - 1 - i
			rec = EncodeRecord([]Value{Int(int64(j)), Text(fmt.Sprintf("rev-%d", j))})
			if err := tr.InsertRow(int64(j), rec); err != nil {
				t.Fatal(err)
			}
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity: %v", problems[:min(4, len(problems))])
		}
		count := 0
		last := int64(-1)
		tr.ScanTable(func(rowid int64, record []byte) bool {
			if rowid <= last {
				t.Fatalf("scan out of order: %d after %d", rowid, last)
			}
			last = rowid
			count++
			return true
		})
		if count != n {
			t.Fatalf("scan found %d rows, want %d", count, n)
		}
		if got := tr.GetRow(1234); got == nil {
			t.Fatal("GetRow(1234) missed")
		}
		if tr.MaxRowid() != n-1 {
			t.Fatalf("MaxRowid = %d", tr.MaxRowid())
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FuzzDecodePage feeds hostile page bytes to the page decoder, as a
// corrupted file below the pager would. The decoder must never panic:
// either it returns a *PageError, or every cell it returns decodes with
// the cell decoder of its page type, and re-encoding the cells gives a
// page that decodes to the same cells. Inputs are padded or cut to one
// page, as the pager reads them; the seed corpus is in testdata.
func FuzzDecodePage(f *testing.F) {
	leaf := make([]byte, PageSize)
	encodePage(leaf, pgTableLeaf, 0, [][]byte{
		encodeTCell(pgTableLeaf, tcell{rowid: 1, payload: []byte("row")}),
	})
	f.Add(leaf[:64])
	f.Fuzz(func(t *testing.T, in []byte) {
		page := make([]byte, PageSize)
		copy(page, in)
		typ, right, cells, err := decodePage(page)
		if err != nil {
			if _, ok := err.(*PageError); !ok {
				t.Fatalf("decode error %T, want *PageError", err)
			}
			return
		}
		for _, c := range cells {
			if typ == pgTableLeaf || typ == pgTableInterior {
				decodeTCell(typ, c)
			} else {
				decodeICell(typ, c)
			}
		}
		out := make([]byte, PageSize)
		if !encodePage(out, typ, right, cells) {
			t.Fatalf("%d decoded cells do not fit back into a page", len(cells))
		}
		typ2, right2, cells2, err := decodePage(out)
		if err != nil || typ2 != typ || right2 != right || len(cells2) != len(cells) {
			t.Fatalf("re-encoded page decodes to type %d right %d %d cells (%v), want %d/%d/%d",
				typ2, right2, len(cells2), err, typ, right, len(cells))
		}
		for i := range cells {
			if string(cells2[i]) != string(cells[i]) {
				t.Fatalf("cell %d changed across re-encoding", i)
			}
		}
	})
}

// TestLoadCatalogCorruptRoot: a corrupt catalog root fails the open with
// a *PageError instead of panicking out of the catalog scan.
func TestLoadCatalogCorruptRoot(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		root := p.CatalogRoot()
		p.Get(root)[1] = 0xFF // cell count far past the page
		p.Get(root)[2] = 0xFF
		_, err := LoadCatalog(p)
		var pe *PageError
		if !errors.As(err, &pe) || pe.Page != root {
			t.Fatalf("LoadCatalog over corrupt root %d: err %v, want *PageError", root, err)
		}
	})
}
