// Benchmarks for the executor hot path, measuring real Go wall-clock
// (ns/op), not simulated time: simulated durations and joules are
// batch-size invariant by design, so these benchmarks document the real
// speedup of the vectorized batch pipeline over row-at-a-time execution.
package main

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/hw/system"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// benchTable loads a lineitem heap once for the scan benchmarks.
func benchTable(b *testing.B) *catalog.Table {
	b.Helper()
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.02, 42).Load(cat, tpch.Lineitem)
	return cat.MustTable(tpch.Lineitem)
}

func benchCtx() *exec.Ctx {
	clock := sim.NewClock()
	return &exec.Ctx{
		CPU:  cpu.New(cpu.E8500(), clock),
		Cost: engine.ProfileMySQLMemory().Cost,
	}
}

// rowPage is one pre-materialized row-major page for the row-at-a-time
// baseline: the layout the pre-columnar engine stored.
type rowPage struct {
	rows  []expr.Row
	bytes int64
}

// rowPages materializes a heap's pages into row-major form once, outside
// the timed region, so the row baseline iterates what the old engine
// stored rather than paying a per-run gather.
func rowPages(tb *catalog.Table) []rowPage {
	heap := tb.Heap
	out := make([]rowPage, heap.NumPages())
	for i := range out {
		p := heap.Page(i)
		out[i] = rowPage{rows: p.Rows(), bytes: p.Bytes}
	}
	return out
}

// rowScan replicates the pre-vectorization row-at-a-time push scan: one
// emit-closure call and one interpreted predicate evaluation per tuple,
// with per-page cost flushes — the baseline the batch pipeline replaced.
func rowScan(ctx *exec.Ctx, pages []rowPage, filter expr.Expr, emit func(expr.Row)) {
	var meter expr.Cost
	for i := range pages {
		page := &pages[i]
		ctx.Charge(cpu.Stream, ctx.Cost.PageStreamCyclesPerKB*float64(page.bytes)/1024)
		nRows := float64(len(page.rows))
		ctx.Charge(cpu.Compute, ctx.Cost.ScanTupleCycles*nRows)
		ctx.Charge(cpu.MemStall, ctx.Cost.ScanTupleStallCycles*nRows)
		for _, row := range page.rows {
			if filter != nil && !filter.Eval(row, &meter).Truthy() {
				continue
			}
			emit(row)
		}
		ctx.ChargeExpr(&meter)
		ctx.Flush()
	}
}

// BenchmarkScanRowVsBatch compares the executor's filtered-scan hot path:
// the historical row-at-a-time push loop against the vectorized batch
// pipeline, over the same lineitem heap and predicate.
func BenchmarkScanRowVsBatch(b *testing.B) {
	tb := benchTable(b)
	pred := expr.Cmp{Op: expr.EQ, L: tb.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(25)}}

	b.Run("row", func(b *testing.B) {
		pages := rowPages(tb)
		b.ResetTimer()
		var rows int64
		for i := 0; i < b.N; i++ {
			ctx := benchCtx()
			rows = 0
			rowScan(ctx, pages, pred, func(expr.Row) { rows++ })
		}
		b.ReportMetric(float64(rows), "rows")
	})

	b.Run("batch", func(b *testing.B) {
		var rows int64
		for i := 0; i < b.N; i++ {
			ctx := benchCtx()
			rows = 0
			op := exec.Compile(plan.NewScan(tb, pred))
			if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
				rows += int64(batch.Len())
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			ctx.Flush()
		}
		b.ReportMetric(float64(rows), "rows")
	})
}

// BenchmarkColumnarFilter measures the scan→filter hot path on the TPC-H
// band-selection shape (l_quantity BETWEEN): the row-major baseline — the
// pre-columnar engine's per-tuple interpreted loop over row-major pages —
// against the columnar executor's typed-payload selection loops. It
// reports both arms and enforces no bar; the columnar arm has run ~9×
// faster on a 2-core x86-64 host.
func BenchmarkColumnarFilter(b *testing.B) {
	tb := benchTable(b)
	pred := expr.Between{E: tb.Schema.Col("l_quantity"),
		Lo: expr.Int(10), Hi: expr.Int(30)}

	b.Run("row", func(b *testing.B) {
		pages := rowPages(tb)
		b.ResetTimer()
		var rows int64
		for i := 0; i < b.N; i++ {
			ctx := benchCtx()
			rows = 0
			rowScan(ctx, pages, pred, func(expr.Row) { rows++ })
		}
		b.ReportMetric(float64(rows), "rows")
	})

	b.Run("columnar", func(b *testing.B) {
		var rows int64
		for i := 0; i < b.N; i++ {
			ctx := benchCtx()
			rows = 0
			op := exec.Compile(plan.NewScan(tb, pred))
			if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
				rows += int64(batch.Len())
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			ctx.Flush()
		}
		b.ReportMetric(float64(rows), "rows")
	})
}

// BenchmarkQ5Exec measures a full TPC-H Q5 execution — the six-table hash
// join pipeline with aggregation and sort — through the batch executor.
func BenchmarkQ5Exec(b *testing.B) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	q5 := tpch.Q5(e.Catalog(), "ASIA", 1994)
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		st := e.Query(q5).Stats()
		rows = st.RowsOut
	}
	b.ReportMetric(float64(rows), "rows")
}
