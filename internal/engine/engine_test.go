package engine

import (
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

func newEngine(t testing.TB, prof Profile, sf float64) (*Engine, *system.Machine) {
	t.Helper()
	m := system.NewSUT()
	e := New(prof, m)
	tpch.NewGenerator(sf, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	return e, m
}

func TestExecQ5ReturnsNationsOfRegion(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.01)
	res, st := e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if len(res.Rows) == 0 || len(res.Rows) > 5 {
		t.Fatalf("Q5 returned %d rows, want 1..5 (nations in ASIA)", len(res.Rows))
	}
	asia := map[string]bool{"INDIA": true, "INDONESIA": true, "JAPAN": true, "CHINA": true, "VIETNAM": true}
	for _, row := range res.Rows {
		if !asia[row[0].S] {
			t.Fatalf("non-ASIA nation %q in result", row[0].S)
		}
	}
	// Sorted by revenue descending.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].F > res.Rows[i-1][1].F {
			t.Fatal("result not sorted by revenue desc")
		}
	}
	if st.Duration <= 0 || st.RowsOut != int64(len(res.Rows)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQ5ResultsIdenticalAcrossProfiles(t *testing.T) {
	// The engines differ in cost and timing, never in answers.
	eMem, _ := newEngine(t, ProfileMySQLMemory(), 0.01)
	eCom, _ := newEngine(t, ProfileCommercial(), 0.01)
	eCom.WarmAll()

	rMem, _ := eMem.Exec(tpch.Q5(eMem.Catalog(), "AMERICA", 1995))
	rCom, _ := eCom.Exec(tpch.Q5(eCom.Catalog(), "AMERICA", 1995))
	if len(rMem.Rows) != len(rCom.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(rMem.Rows), len(rCom.Rows))
	}
	for i := range rMem.Rows {
		if rMem.Rows[i][0].S != rCom.Rows[i][0].S {
			t.Fatalf("row %d nations differ", i)
		}
		if diff := rMem.Rows[i][1].F - rCom.Rows[i][1].F; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("row %d revenues differ", i)
		}
	}
}

func TestSelectionSelectivity(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.02)
	total := e.Catalog().MustTable(tpch.Lineitem).Heap.NumRows()
	res, _ := e.Exec(tpch.QuantityQuery(e.Catalog(), 25))
	frac := float64(len(res.Rows)) / float64(total)
	if frac < 0.012 || frac > 0.028 {
		t.Fatalf("selection fraction = %.4f, want ≈0.02", frac)
	}
}

func TestMemoryEngineNeverTouchesDisk(t *testing.T) {
	e, m := newEngine(t, ProfileMySQLMemory(), 0.005)
	before := m.Disk.Stats()
	e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))
	after := m.Disk.Stats()
	if after.Reads != before.Reads {
		t.Fatal("memory engine performed disk reads")
	}
	if e.Pool() != nil {
		t.Fatal("memory engine should have no buffer pool")
	}
}

func TestColdRunSlowerThanWarm(t *testing.T) {
	prof := ProfileCommercial()
	e, m := newEngine(t, prof, 0.01)
	q := tpch.Q5(e.Catalog(), "ASIA", 1994)

	e.ColdStart()
	_, cold := e.Exec(q)
	e.WarmAll()
	_, warm := e.Exec(q)

	if cold.Duration <= warm.Duration {
		t.Fatalf("cold %v should exceed warm %v", cold.Duration, warm.Duration)
	}
	if cold.PoolMisses == 0 {
		t.Fatal("cold run should miss in the pool")
	}
	if warm.PoolMisses != 0 {
		t.Fatalf("warm run missed %d pages", warm.PoolMisses)
	}
	if m.Disk.Stats().Reads == 0 {
		t.Fatal("cold run should read the disk")
	}
}

func TestAmplificationScalesDuration(t *testing.T) {
	base := ProfileMySQLMemory()
	amp := ProfileMySQLMemory()
	amp.WorkAmplification = 10

	e1, _ := newEngine(t, base, 0.005)
	e2, _ := newEngine(t, amp, 0.005)
	_, s1 := e1.Exec(tpch.QuantityQuery(e1.Catalog(), 1))
	_, s2 := e2.Exec(tpch.QuantityQuery(e2.Catalog(), 1))

	ratio := s2.Duration.Seconds() / s1.Duration.Seconds()
	// Statement overhead is not amplified, so the ratio is slightly
	// below 10.
	if ratio < 8.5 || ratio > 10.1 {
		t.Fatalf("amplification ×10 scaled duration by %.2f", ratio)
	}
}

func TestParallelismRestoredAfterExec(t *testing.T) {
	e, m := newEngine(t, ProfileCommercial(), 0.005)
	e.WarmAll()
	e.Exec(tpch.QuantityQuery(e.Catalog(), 1))
	// After Exec the machine must be back at parallelism 1: a 1e9-cycle
	// compute run takes 1e9/F seconds on one core.
	d := m.CPU.Run(1e9, 0)
	want := 1e9 / (3.1667e9)
	if diff := d.Seconds() - want; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("parallelism not restored: run took %v", d)
	}
}

func TestBackgroundIOHappensWhenWarm(t *testing.T) {
	prof := ProfileCommercial()
	prof.BGIOProbPerPage = 0.2 // make it frequent for the test
	e, m := newEngine(t, prof, 0.01)
	e.WarmAll()
	before := m.Disk.Stats().Reads
	e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if m.Disk.Stats().Reads == before {
		t.Fatal("warm run produced no background disk activity")
	}
}

func TestResultClientGCFactor(t *testing.T) {
	cost := ProfileMySQLMemory().Cost
	small := cost.ClientRowFactor(1000)
	big := cost.ClientRowFactor(2.1e6)
	bigger := cost.ClientRowFactor(10e6)
	if !(small < big) {
		t.Fatal("GC factor should grow with result size")
	}
	if big != bigger {
		t.Fatal("GC factor should saturate")
	}
}

func TestDiskBackedProfileRequiresPool(t *testing.T) {
	prof := ProfileCommercial()
	prof.PoolBytes = 0
	defer func() {
		if recover() == nil {
			t.Fatal("pool-less disk profile did not panic")
		}
	}()
	New(prof, system.NewSUT())
}

func TestFragmentedReaderChargesSeeks(t *testing.T) {
	m := system.NewSUT()
	r := &reader{m: m, amp: 1, extent: 64 << 10}
	before := m.Disk.Stats().Seeks
	// Stream 256 KB sequentially: expect 4 extent-boundary seeks.
	for i := 0; i < 32; i++ {
		r.BlockingRead(8<<10, i > 0)
	}
	seeks := m.Disk.Stats().Seeks - before
	// The first read is random (its own seek) plus ≈3-4 extent seeks.
	if seeks < 4 || seeks > 6 {
		t.Fatalf("seeks = %d, want ≈5", seeks)
	}
}

func TestEngineString(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.001)
	if e.String() == "" {
		t.Fatal("empty String()")
	}
}

// Guard against accidental schema drift in the public profile presets.
func TestProfilePresets(t *testing.T) {
	c := ProfileCommercial()
	if c.MemoryEngine || c.Parallelism != 2 || c.PoolBytes == 0 {
		t.Fatalf("commercial profile misconfigured: %+v", c)
	}
	mysql := ProfileMySQLMemory()
	if !mysql.MemoryEngine || mysql.Parallelism != 1 {
		t.Fatalf("mysql profile misconfigured: %+v", mysql)
	}
	if mysql.Amplification() != 1 {
		t.Fatal("default amplification should be 1")
	}
}

// plan import is exercised via tpch plans; keep a direct use for clarity.
var _ plan.Node = (*plan.Scan)(nil)
var _ = expr.Int

// --- streaming Query API ---

func TestQueryStreamMatchesExec(t *testing.T) {
	e1, _ := newEngine(t, ProfileMySQLMemory(), 0.01)
	e2, _ := newEngine(t, ProfileMySQLMemory(), 0.01)

	res, st := e1.Exec(tpch.Q5(e1.Catalog(), "ASIA", 1994))

	rows := e2.Query(tpch.Q5(e2.Catalog(), "ASIA", 1994))
	var streamed []expr.Row
	for {
		b, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		streamed = b.AppendRowsTo(streamed)
	}
	stStream := rows.Stats()

	if len(streamed) != len(res.Rows) {
		t.Fatalf("streamed %d rows, materialized %d", len(streamed), len(res.Rows))
	}
	for i := range streamed {
		if streamed[i][0].S != res.Rows[i][0].S || streamed[i][1].F != res.Rows[i][1].F {
			t.Fatalf("row %d differs: %v vs %v", i, streamed[i], res.Rows[i])
		}
	}
	// Identical engines on identical machines: streaming must charge the
	// exact same simulated duration and produce the same stats.
	if stStream.Duration != st.Duration || stStream.RowsOut != st.RowsOut || stStream.BytesOut != st.BytesOut {
		t.Fatalf("stats differ: stream %+v vs exec %+v", stStream, st)
	}
}

func TestQueryStatsDrainsUnconsumedStream(t *testing.T) {
	e1, _ := newEngine(t, ProfileMySQLMemory(), 0.01)
	e2, _ := newEngine(t, ProfileMySQLMemory(), 0.01)

	_, st := e1.Exec(tpch.QuantityQuery(e1.Catalog(), 25))

	// Abandoning the stream must still complete the statement's simulated
	// work: the engines under study never terminate a query early.
	rows := e2.Query(tpch.QuantityQuery(e2.Catalog(), 25))
	stStream := rows.Stats()
	if stStream.Duration != st.Duration || stStream.RowsOut != st.RowsOut {
		t.Fatalf("abandoned stream stats %+v differ from exec %+v", stStream, st)
	}
}

func TestQueryCloseIdempotent(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.005)
	rows := e.Query(tpch.QuantityQuery(e.Catalog(), 1))
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := rows.Next(); b != nil || err != nil {
		t.Fatal("Next after Close should report end of stream")
	}
	if rows.Stats().RowsOut == 0 {
		t.Fatal("closed stream should still account all rows")
	}
}

func TestQueryParallelismRestored(t *testing.T) {
	e, m := newEngine(t, ProfileCommercial(), 0.005)
	e.WarmAll()
	e.Query(tpch.QuantityQuery(e.Catalog(), 1)).Close()
	d := m.CPU.Run(1e9, 0)
	want := 1e9 / (3.1667e9)
	if diff := d.Seconds() - want; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("parallelism not restored after streaming query: run took %v", d)
	}
}

func TestSimulationInvariantAcrossWorkerCounts(t *testing.T) {
	// The morsel-parallel path must leave the simulation bit-identical:
	// same rows, same duration, same pool traffic, same charged cycles —
	// for any worker count, on the disk-backed profile with background
	// I/O live.
	type run struct {
		rows     []expr.Row
		stats    ExecStats
		cycles   float64
		byKind   [3]float64
		poolHits int64
	}
	exec := func(workers int) run {
		prof := ProfileCommercial()
		prof.Workers = workers
		e, m := newEngine(t, prof, 0.01)
		e.WarmAll()
		res, st := e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))
		cs := m.CPUModel().Stats()
		return run{rows: res.Rows, stats: st, cycles: cs.Cycles,
			byKind: cs.CyclesByKind, poolHits: st.PoolHits}
	}

	base := exec(0) // serial
	for _, w := range []int{1, 2, 4, 7} {
		got := exec(w)
		if len(got.rows) != len(base.rows) {
			t.Fatalf("workers=%d: %d rows, want %d", w, len(got.rows), len(base.rows))
		}
		for i := range got.rows {
			for c := range got.rows[i] {
				if got.rows[i][c] != base.rows[i][c] {
					t.Fatalf("workers=%d: row %d col %d differs", w, i, c)
				}
			}
		}
		if got.stats != base.stats {
			t.Fatalf("workers=%d: stats differ:\n got %+v\nwant %+v", w, got.stats, base.stats)
		}
		if got.cycles != base.cycles || got.byKind != base.byKind {
			t.Fatalf("workers=%d: charged cycles differ: %v/%v vs %v/%v",
				w, got.cycles, got.byKind, base.cycles, base.byKind)
		}
		if got.poolHits != base.poolHits {
			t.Fatalf("workers=%d: pool hits %d, want %d", w, got.poolHits, base.poolHits)
		}
	}
}

func TestParallelAggSimulationInvariantAcrossWorkerCounts(t *testing.T) {
	// Profile.Workers routes Agg(fragment) plans through the parallel
	// pre-aggregation path and Sort(fragment) plans through worker-side run
	// generation plus a loser-tree merge. Both must leave rows, stats, and
	// charged cycles bit-identical at every worker count, on the
	// disk-backed profile with background I/O live.
	cases := []struct {
		name  string
		query func(*Engine) plan.Node
		sort  bool
	}{
		{"agg", func(e *Engine) plan.Node { return tpch.RevenueByQuantityQuery(e.Catalog(), 40) }, false},
		{"sort", func(e *Engine) plan.Node { return tpch.OrderedRevenueQuery(e.Catalog(), 40) }, true},
	}
	type run struct {
		rows                  []expr.Row
		stats                 ExecStats
		cycles                float64
		sortRows, mergePasses int64
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(workers int) run {
				prof := ProfileCommercial()
				prof.Workers = workers
				e, m := newEngine(t, prof, 0.01)
				e.WarmAll()
				s0, p0 := obsv.SortRows.Load(), obsv.MergePasses.Load()
				res, st := e.Exec(tc.query(e))
				return run{rows: res.Rows, stats: st, cycles: m.CPUModel().Stats().Cycles,
					sortRows: obsv.SortRows.Load() - s0, mergePasses: obsv.MergePasses.Load() - p0}
			}

			base := exec(1)
			if len(base.rows) == 0 {
				t.Fatal("query returned no rows")
			}
			if tc.sort && base.mergePasses != 0 {
				t.Fatalf("workers=1: %d merge passes, want 0 (serial sort)", base.mergePasses)
			}
			for _, w := range []int{2, 4} {
				got := exec(w)
				if len(got.rows) != len(base.rows) {
					t.Fatalf("workers=%d: %d rows, want %d", w, len(got.rows), len(base.rows))
				}
				for i := range got.rows {
					for c := range got.rows[i] {
						if got.rows[i][c] != base.rows[i][c] {
							t.Fatalf("workers=%d: row %d col %d: %v != %v",
								w, i, c, got.rows[i][c], base.rows[i][c])
						}
					}
				}
				if got.stats != base.stats {
					t.Fatalf("workers=%d: stats differ:\n got %+v\nwant %+v", w, got.stats, base.stats)
				}
				if got.cycles != base.cycles {
					t.Fatalf("workers=%d: charged cycles %v, want %v", w, got.cycles, base.cycles)
				}
				if !tc.sort {
					continue
				}
				// The registry counters prove which path ran: every arm
				// sorts the same rows, but only the parallel arms merge.
				if got.mergePasses == 0 {
					t.Fatalf("workers=%d: no merge passes — the parallel sort never engaged", w)
				}
				if got.sortRows != base.sortRows {
					t.Fatalf("workers=%d: sorted %d rows, want %d", w, got.sortRows, base.sortRows)
				}
			}
		})
	}
}

func TestRowsEarlyCloseDrainsStatement(t *testing.T) {
	// Abandoning a streaming result mid-scan must still charge the whole
	// statement: the engines under study never terminate early. Duration
	// and row accounting must match a fully consumed run on an identical
	// engine.
	full, _ := newEngine(t, ProfileCommercial(), 0.01)
	full.WarmAll()
	q := func(e *Engine) plan.Node {
		li := e.MustTable(tpch.Lineitem)
		return plan.NewScan(li, expr.Cmp{
			Op: expr.LT, L: li.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(10)}})
	}
	_, want := full.Exec(q(full))

	early, _ := newEngine(t, ProfileCommercial(), 0.01)
	early.WarmAll()
	rows := early.Query(q(early))
	b, err := rows.Next()
	if err != nil || b == nil {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	got := rows.Stats()
	if got != want {
		t.Fatalf("early-closed stats %+v, want fully-drained %+v", got, want)
	}
	if b2, _ := rows.Next(); b2 != nil {
		t.Fatal("closed stream served another batch")
	}
}
