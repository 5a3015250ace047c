// Golden + budget coverage for the observability layer: the EXPLAIN
// ANALYZE profile of a Q5-shaped query is pinned byte for byte (rows,
// estimate-vs-actual join-up, attributed joules and times are all
// deterministic simulated quantities), and profiling's real wall-clock
// overhead is measured against an unprofiled run of the same statement.
package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ecodb/internal/engine"
	"ecodb/internal/hw/system"
	"ecodb/internal/opt"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

const analyzeQ5 = `EXPLAIN ANALYZE SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	FROM region
	JOIN nation ON n_regionkey = r_regionkey
	JOIN customer ON c_nationkey = n_nationkey
	JOIN orders ON o_custkey = c_custkey
	JOIN lineitem ON l_orderkey = o_orderkey
	JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
	WHERE r_name = 'ASIA'
	  AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'
	GROUP BY n_name ORDER BY revenue DESC`

// TestGoldenAnalyze pins the EXPLAIN ANALYZE rendering of TPC-H Q5 under
// the latency objective (optimized path: every operator carries the
// optimizer's estimate next to its actuals) and on the hand-lowered path
// (objective disabled). Any drift in operator instrumentation, joule
// attribution, or the estimate join-up shows up here as a byte diff.
func TestGoldenAnalyze(t *testing.T) {
	mkEngine := func(obj opt.Objective) *engine.Engine {
		prof := engine.ProfileCommercial()
		prof.Objective = obj
		e := engine.New(prof, system.NewSUT())
		tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
			tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
		e.WarmAll()
		return e
	}

	var b strings.Builder
	for _, tc := range []struct {
		name string
		obj  opt.Objective
	}{
		{"latency objective (optimized, estimates attached)", opt.MinimizeLatency()},
		{"objective disabled (hand-lowered)", opt.Objective{}},
	} {
		out, err := sql.ExplainAnalyze(mkEngine(tc.obj), analyzeQ5)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "== EXPLAIN ANALYZE Q5, %s ==\n%s\n", tc.name, out)
	}
	checkGolden(t, "analyze", b.String())
}

// BenchmarkProfileOverhead enforces the profiling wall-clock budget on a
// statement: TPC-H Q5 executed with profiling off and on. Repetitions
// alternate between the two arms (and which arm goes first), so drift in
// host speed lands on both equally, and the gate compares medians; the
// spread between quartiles is logged so a reader can see whether the
// measured overhead stands above the noise. The budget is <5% —
// instrumentation is a per-batch span push/pop and a handful of float adds
// against the simulated-arithmetic-heavy executor, so the overhead must
// stay in the noise. The benchmark fails when the budget is exceeded.
func BenchmarkProfileOverhead(b *testing.B) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	q5 := tpch.Q5(e.Catalog(), "ASIA", 1994)

	run := func(profiling bool) time.Duration {
		e.SetProfiling(profiling)
		t0 := time.Now()
		e.Query(q5).Close()
		return time.Since(t0)
	}
	run(false) // warm code paths and allocator before measuring
	run(true)

	const pairs = 50
	var off, on []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < pairs; r++ {
			if r%2 == 0 {
				off = append(off, run(false))
				on = append(on, run(true))
			} else {
				on = append(on, run(true))
				off = append(off, run(false))
			}
		}
	}
	b.StopTimer()

	offQ, onQ := quartiles(off), quartiles(on)
	overhead := 100 * (float64(onQ[1])/float64(offQ[1]) - 1)
	b.ReportMetric(overhead, "overhead-%")
	b.Logf("profiling off median %v (IQR %v), on median %v (IQR %v), overhead %.2f%% over %d pairs",
		offQ[1], offQ[2]-offQ[0], onQ[1], onQ[2]-onQ[0], overhead, len(off))
	if overhead >= 5 {
		b.Fatalf("profiling overhead %.2f%% exceeds the 5%% budget (median off %v, on %v)",
			overhead, offQ[1], onQ[1])
	}
}

// quartiles returns the lower quartile, median, and upper quartile of ds
// (nearest rank on a sorted copy).
func quartiles(ds []time.Duration) [3]time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(p float64) time.Duration { return s[int(p*float64(len(s)-1)+0.5)] }
	return [3]time.Duration{at(0.25), at(0.5), at(0.75)}
}
