package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/experiments"
	"cubicleos/internal/sqldb"
)

// sql: speedtest's schema at a size whose zbig table is several times the
// 128-page pager cache, then a seeded mix of reads and autocommit writes.
const (
	// sqlSize is the speedtest size; zbig gets 40*sqlSize rows of ~200 B.
	sqlSize       = 300
	sqlStatements = 5000
	zbigKeyMod    = 997 // speedtest fills zbig.k with id % 997
	zbigPadWidth  = 180
)

// Statement kinds. Reads come first so kind < sqlUpdate means a read.
const (
	sqlPoint  = iota // SELECT by primary key
	sqlIndex         // SELECT by the indexed k column
	sqlRange         // aggregate over a primary-key range
	sqlUpdate        // UPDATE one row's k
	sqlInsert        // INSERT a new row
)

type sqlStmt struct {
	kind int
	text string
	// id is the row (point, update, insert) or range start; arg is the
	// new k (update, insert), the looked-up k (index) or range end.
	id, arg int64
	pad     string
}

// zbigModel is the benchmark's own copy of zbig: what every SELECT must
// return, given the rows speedtest inserted and the benchmark's writes.
type zbigModel struct {
	k    []int64  // by id; index 0 unused
	pads []string // by id
	byK  map[int64][]int64
}

// speedtestPad is speedtest's deterministic filler for row i.
func speedtestPad(i int) string {
	s := fmt.Sprintf("%0*d", zbigPadWidth, i*2654435761%100000000)
	for len(s) < zbigPadWidth {
		s += "x"
	}
	return s
}

func newZbigModel(rows int) *zbigModel {
	m := &zbigModel{k: make([]int64, rows+1), pads: make([]string, rows+1), byK: map[int64][]int64{}}
	for i := 1; i <= rows; i++ {
		m.k[i] = int64(i % zbigKeyMod)
		m.pads[i] = speedtestPad(i)
		m.byK[m.k[i]] = append(m.byK[m.k[i]], int64(i))
	}
	return m
}

func (m *zbigModel) clone() *zbigModel {
	c := &zbigModel{k: append([]int64(nil), m.k...), pads: append([]string(nil), m.pads...), byK: make(map[int64][]int64, len(m.byK))}
	for k, ids := range m.byK {
		c.byK[k] = append([]int64(nil), ids...)
	}
	return c
}

func (m *zbigModel) setK(id, k int64) {
	old := m.k[id]
	ids := m.byK[old]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			m.byK[old] = ids[:len(ids)-1]
			break
		}
	}
	m.k[id] = k
	m.byK[k] = append(m.byK[k], id)
}

// genStatements draws the seeded statement stream: ~70% reads (25% point,
// 10% index, 35% range) and ~30% writes (20% update, 10% insert). Range
// scans of seeded width are the middle of the latency distribution, so the
// median op's cost varies continuously with the seed rather than sitting
// on the fixed cost of a cached point lookup.
func genStatements(r *rng, n, rows int) []sqlStmt {
	out := make([]sqlStmt, n)
	maxID := int64(rows)
	for i := range out {
		var s sqlStmt
		switch p := r.intn(100); {
		case p < 25:
			s = sqlStmt{kind: sqlPoint, id: 1 + int64(r.intn(int(maxID)))}
			s.text = fmt.Sprintf("SELECT k, pad FROM zbig WHERE id = %d", s.id)
		case p < 35:
			s = sqlStmt{kind: sqlIndex, arg: int64(r.intn(zbigKeyMod))}
			s.text = fmt.Sprintf("SELECT id FROM zbig WHERE k = %d", s.arg)
		case p < 70:
			width := 20 + int64(r.intn(181))
			s = sqlStmt{kind: sqlRange, id: 1 + int64(r.intn(int(maxID)))}
			s.arg = s.id + width - 1
			s.text = fmt.Sprintf("SELECT count(*), sum(k) FROM zbig WHERE id BETWEEN %d AND %d", s.id, s.arg)
		case p < 90:
			s = sqlStmt{kind: sqlUpdate, id: 1 + int64(r.intn(int(maxID))), arg: int64(r.intn(zbigKeyMod))}
			s.text = fmt.Sprintf("UPDATE zbig SET k = %d WHERE id = %d", s.arg, s.id)
		default:
			maxID++
			s = sqlStmt{kind: sqlInsert, id: maxID, arg: int64(r.intn(zbigKeyMod)), pad: string(r.text(zbigPadWidth))}
			for j := 0; j < len(s.pad); j++ {
				if s.pad[j] == '\n' || s.pad[j] == ' ' {
					s.pad = s.pad[:j] + "_" + s.pad[j+1:]
				}
			}
			s.text = fmt.Sprintf("INSERT INTO zbig VALUES (%d, %d, '%s')", s.id, s.arg, s.pad)
		}
		out[i] = s
	}
	return out
}

type sqlWorkload struct {
	stmts []sqlStmt
	base  *zbigModel
	model *zbigModel
	t     *experiments.SQLiteTarget
}

func newSQL(seed uint64) *sqlWorkload {
	rows := 40 * sqlSize
	return &sqlWorkload{stmts: genStatements(newRNG(seed, 1), sqlStatements, rows), base: newZbigModel(rows)}
}

func (w *sqlWorkload) inputs() []byte {
	h := sha256.New()
	for _, s := range w.stmts {
		h.Write([]byte(s.text))
	}
	return h.Sum(nil)
}

func (w *sqlWorkload) setup(rec *recorder, traced bool) error {
	s := rec.begin(lBoot)
	t, err := experiments.NewSQLiteTarget(cubicle.ModeFull, nil, sqlSize, experiments.UnikraftWorkScale)
	if err == nil && traced {
		// NewSQLiteTarget has no tracing option: turn the tracer on right
		// after boot, so it covers provisioning and the op phase.
		t.Sys.M.EnableTracing(traceRing)
	}
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin(lProvision)
	err = t.Setup()
	rec.end(s)
	w.t = t
	w.model = w.base.clone()
	return err
}

func (w *sqlWorkload) drop() { w.t = nil }

func (w *sqlWorkload) run(rec *recorder) (*outcome, error) {
	t := w.t
	clock := t.Sys.M.Clock
	s0 := takeSnapshot(t.Sys)
	p0 := t.DB.Pager().Stats
	out := &outcome{ops: len(w.stmts), counts: map[string]float64{}}
	var vlat [2][]uint64 // by read (0) / write (1)
	for i := range w.stmts {
		st := &w.stmts[i]
		rec.op = int32(i)
		root := rec.begin(lRoot)
		var res *sqldb.Result
		var xerr error
		s := rec.begin(lSystem)
		start := clock.Cycles()
		err := t.Sys.RunAs("SQLITE", func(*cubicle.Env) { res, xerr = t.DB.Exec(st.text) })
		used := clock.Cycles() - start
		rec.end(s)
		if err == nil {
			err = xerr
		}
		if err != nil {
			out.failed++
		} else {
			c := rec.begin(lCheck)
			if !w.check(st, res) {
				out.wrong++
			}
			rec.end(c)
			out.lat = append(out.lat, used)
			rw := 0
			if st.kind >= sqlUpdate {
				rw = 1
			}
			vlat[rw] = append(vlat[rw], used)
		}
		rec.end(root)
		rec.lap()
	}
	rec.op = -1
	s1 := takeSnapshot(t.Sys)
	out.elapsed = s1.clock - s0.clock
	out.busy = out.elapsed
	out.setLatencies()
	var d monDelta
	d.add(t.Sys.M, &s0.stats, &s1.stats)
	d.put(out.counts, out.ops)
	p1 := t.DB.Pager().Stats
	n := float64(out.ops)
	if hm := (p1.Hits - p0.Hits) + (p1.Misses - p0.Misses); hm > 0 {
		out.counts["sqldb.cache_hit_ratio"] = float64(p1.Hits-p0.Hits) / float64(hm)
	}
	out.counts["sqldb.page_reads_per_op"] = float64(p1.Reads-p0.Reads) / n
	out.counts["sqldb.page_writes_per_op"] = float64(p1.Writes-p0.Writes) / n
	out.counts["sqldb.fsyncs_per_op"] = float64(p1.Fsyncs-p0.Fsyncs) / n
	out.counts["sqldb.journal_pages_per_op"] = float64(p1.JournalPages-p0.JournalPages) / n
	out.counts["ramfs.ops_per_op"] = float64(s1.ramfsOps-s0.ramfsOps) / n
	out.counts["ualloc.arena_mb"] = float64(t.Sys.Alloc.TotalArenaBytes()) / (1 << 20)
	out.counts["system.steps_per_op"] = 1
	for rw, name := range []string{"read", "write"} {
		l := vlat[rw]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out.counts["sql."+name+".vlat_us_p50"] = float64(pct(l, 0.5)) / (cyclesPerSecond / 1e6)
	}
	if s0.prof != nil {
		out.vprof = map[string]uint64{}
		out.vprofTotal = vprofDelta(out.vprof, s0, s1)
		out.traceDropped = t.Sys.M.Tracer().Dropped()
	}
	w.t = nil
	return out, nil
}

// isWrite reports whether statement i of the stream writes.
func (w *sqlWorkload) isWrite(i int) bool { return w.stmts[i].kind >= sqlUpdate }

// check compares one statement's result with the model, applying writes
// to the model as it goes.
func (w *sqlWorkload) check(st *sqlStmt, res *sqldb.Result) bool {
	m := w.model
	switch st.kind {
	case sqlPoint:
		return len(res.Rows) == 1 && len(res.Rows[0]) == 2 &&
			intOf(res.Rows[0][0]) == m.k[st.id] && res.Rows[0][1].Kind == sqldb.KText && res.Rows[0][1].S == m.pads[st.id]
	case sqlIndex:
		want := append([]int64(nil), m.byK[st.arg]...)
		if len(res.Rows) != len(want) {
			return false
		}
		got := make([]int64, len(res.Rows))
		for i, row := range res.Rows {
			if len(row) != 1 {
				return false
			}
			got[i] = intOf(row[0])
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	case sqlRange:
		var count, sum int64
		for id := st.id; id <= st.arg && id < int64(len(m.k)); id++ {
			count++
			sum += m.k[id]
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || intOf(res.Rows[0][0]) != count {
			return false
		}
		if count == 0 {
			return res.Rows[0][1].Kind == sqldb.KNull
		}
		return intOf(res.Rows[0][1]) == sum
	case sqlUpdate:
		m.setK(st.id, st.arg)
		return res.RowsAffected == 1
	case sqlInsert:
		m.k = append(m.k, st.arg)
		m.pads = append(m.pads, st.pad)
		m.byK[st.arg] = append(m.byK[st.arg], st.id)
		return res.RowsAffected == 1 && int64(len(m.k)-1) == st.id
	}
	return false
}

// intOf reads an integer result value; reals holding whole numbers count.
func intOf(v sqldb.Value) int64 {
	switch v.Kind {
	case sqldb.KInt:
		return v.I
	case sqldb.KReal:
		if v.R == float64(int64(v.R)) {
			return int64(v.R)
		}
	}
	return -1 << 62
}

func (w *sqlWorkload) capacity() (float64, error) { return 0, nil }
