package tpch

import (
	"fmt"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// Q5 builds TPC-H query 5 — the six-table join with a group-by on one
// attribute that the paper uses for every PVC experiment ("This query has a
// response time that is often close to the geometric mean of the power
// tests"):
//
//	SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
//	FROM customer, orders, lineitem, supplier, nation, region
//	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//	  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
//	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
//	  AND r_name = :region
//	  AND o_orderdate >= :date AND o_orderdate < :date + 1 year
//	GROUP BY n_name ORDER BY revenue DESC
//
// The plan is the no-index shape both engines run: a left-deep chain of
// hash joins over full scans, small relations on the build side.
func Q5(cat *catalog.Catalog, region string, startYear int) plan.Node {
	if startYear < 1992 || startYear > 1997 {
		panic(fmt.Sprintf("tpch: Q5 start year %d outside order-date range", startYear))
	}
	regionT := cat.MustTable(Region)
	nationT := cat.MustTable(Nation)
	customerT := cat.MustTable(Customer)
	ordersT := cat.MustTable(Orders)
	lineitemT := cat.MustTable(Lineitem)
	supplierT := cat.MustTable(Supplier)

	dateLo := expr.MustParseDate(fmt.Sprintf("%d-01-01", startYear))
	dateHi := expr.MustParseDate(fmt.Sprintf("%d-01-01", startYear+1))

	// region(r_name = :region)
	regionScan := plan.NewScan(regionT, expr.Cmp{
		Op: expr.EQ,
		L:  regionT.Schema.Col("r_name"),
		R:  expr.Const{V: expr.String(region)},
	})

	// ⨝ nation ON n_regionkey = r_regionkey
	natJoin := plan.NewHashJoin(
		regionScan, plan.NewScan(nationT, nil),
		regionT.Schema.MustIndex("r_regionkey"),
		nationT.Schema.MustIndex("n_regionkey"),
		nil,
	)

	// ⨝ customer ON c_nationkey = n_nationkey
	custJoin := plan.NewHashJoin(
		natJoin, plan.NewScan(customerT, nil),
		natJoin.Schema().MustIndex("n_nationkey"),
		customerT.Schema.MustIndex("c_nationkey"),
		nil,
	)

	// ⨝ orders ON o_custkey = c_custkey, orders pre-filtered by date
	ordersScan := plan.NewScan(ordersT, expr.Between{
		E:  ordersT.Schema.Col("o_orderdate"),
		Lo: dateLo,
		Hi: dateHi,
	})
	ordJoin := plan.NewHashJoin(
		custJoin, ordersScan,
		custJoin.Schema().MustIndex("c_custkey"),
		ordersT.Schema.MustIndex("o_custkey"),
		nil,
	)

	// ⨝ lineitem ON l_orderkey = o_orderkey
	lineJoin := plan.NewHashJoin(
		ordJoin, plan.NewScan(lineitemT, nil),
		ordJoin.Schema().MustIndex("o_orderkey"),
		lineitemT.Schema.MustIndex("l_orderkey"),
		nil,
	)

	// ⨝ supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey.
	// Supplier is the build side; the nation-equality is a residual on the
	// joined row.
	suppScan := plan.NewScan(supplierT, nil)
	suppJoin := plan.NewHashJoin(
		suppScan, lineJoin,
		supplierT.Schema.MustIndex("s_suppkey"),
		lineJoin.Schema().MustIndex("l_suppkey"),
		nil, // residual attached below once the concat schema exists
	)
	suppJoin.Residual = expr.Cmp{
		Op: expr.EQ,
		L:  suppJoin.Schema().Col("s_nationkey"),
		R:  suppJoin.Schema().Col("c_nationkey"),
	}

	// Revenue aggregation grouped by nation name.
	revenue := expr.Arith{
		Op: expr.Mul,
		L:  suppJoin.Schema().Col("l_extendedprice"),
		R: expr.Arith{
			Op: expr.Sub,
			L:  expr.Const{V: expr.Float(1)},
			R:  suppJoin.Schema().Col("l_discount"),
		},
	}
	agg := plan.NewAgg(suppJoin,
		[]int{suppJoin.Schema().MustIndex("n_name")},
		[]plan.AggSpec{{Func: plan.Sum, Arg: revenue, Name: "revenue"}},
	)

	return plan.NewSort(agg, plan.SortKey{Col: agg.Schema().MustIndex("revenue"), Desc: true})
}

// Q5Params identifies one Q5 instance.
type Q5Params struct {
	Region    string
	StartYear int
}

func (p Q5Params) String() string { return fmt.Sprintf("Q5(%s, %d)", p.Region, p.StartYear) }

// Q5WorkloadParams returns the paper's ten-query workload: "predicates
// using regions 'Asia' and 'America' and all five possible date ranges",
// which are non-overlapping and uniform in work.
func Q5WorkloadParams() []Q5Params {
	var out []Q5Params
	for _, region := range []string{"ASIA", "AMERICA"} {
		for year := 1993; year <= 1997; year++ {
			out = append(out, Q5Params{Region: region, StartYear: year})
		}
	}
	return out
}

// Q5Workload builds the ten Q5 plans of the paper's workload.
func Q5Workload(cat *catalog.Catalog) []plan.Node {
	params := Q5WorkloadParams()
	plans := make([]plan.Node, len(params))
	for i, p := range params {
		plans[i] = Q5(cat, p.Region, p.StartYear)
	}
	return plans
}

// QuantityQuery builds the paper's QED selection query: a full-row
// single-table select over lineitem with a point predicate on l_quantity.
// With quantities uniform over 1..50, each query selects 2% of the table
// (§4: "each query having a 2% selectivity based on the l_quantity
// attribute").
func QuantityQuery(cat *catalog.Catalog, quantity int64) plan.Node {
	t := cat.MustTable(Lineitem)
	return plan.NewScan(t, expr.Cmp{
		Op: expr.EQ,
		L:  t.Schema.Col("l_quantity"),
		R:  expr.Const{V: expr.Int(quantity)},
	})
}

// QuantityWorkload builds n selection queries with distinct l_quantity
// predicates (n ≤ 50, one per distinct value, so "there is no overlap
// amongst the selection predicates up to a batch size of 50").
func QuantityWorkload(cat *catalog.Catalog, n int) []plan.Node {
	if n < 1 || n > 50 {
		panic(fmt.Sprintf("tpch: quantity workload size %d outside [1,50]", n))
	}
	out := make([]plan.Node, n)
	for i := range out {
		out[i] = QuantityQuery(cat, int64(i+1))
	}
	return out
}

// QuantityBandQuery builds a range selection over lineitem:
// lo <= l_quantity < lo+width. The range shape is deliberately outside
// mqo's mergeable fragment (equality selections only), making it the
// target workload of the shared-scan subsystem: QED cannot fold these into
// one disjunction, but scanshare can still serve a whole batch of them
// from one heap pass.
func QuantityBandQuery(cat *catalog.Catalog, lo, width int64) plan.Node {
	t := cat.MustTable(Lineitem)
	return plan.NewScan(t, expr.Between{
		E:  t.Schema.Col("l_quantity"),
		Lo: expr.Int(lo),
		Hi: expr.Int(lo + width),
	})
}

// QuantityBandWorkload builds n non-mergeable band selections with
// distinct, non-overlapping 2-quantity bands (n ≤ 25 keeps the bands
// within l_quantity's 1..50 domain).
func QuantityBandWorkload(cat *catalog.Catalog, n int) []plan.Node {
	if n < 1 || n > 25 {
		panic(fmt.Sprintf("tpch: band workload size %d outside [1,25]", n))
	}
	out := make([]plan.Node, n)
	for i := range out {
		out[i] = QuantityBandQuery(cat, int64(2*i+1), 2)
	}
	return out
}

// RevenueByQuantityQuery builds the Q1-shaped pricing-summary aggregation:
// revenue per l_quantity value over a quantity-bounded slice of lineitem,
//
//	SELECT l_quantity, SUM(l_extendedprice * (1 - l_discount)),
//	       AVG(l_extendedprice * (1 - l_discount)), COUNT(*)
//	FROM lineitem WHERE l_quantity < :maxQty GROUP BY l_quantity
//
// — the aggregation-dominated analytical shape whose Agg sits directly on
// a scan→filter fragment, so the parallel pre-aggregation path applies.
func RevenueByQuantityQuery(cat *catalog.Catalog, maxQty int64) plan.Node {
	t := cat.MustTable(Lineitem)
	price := t.Schema.Col("l_extendedprice")
	disc := t.Schema.Col("l_discount")
	revenue := expr.Arith{
		Op: expr.Mul,
		L:  price,
		R:  expr.Arith{Op: expr.Sub, L: expr.Const{V: expr.Float(1)}, R: disc},
	}
	scan := plan.NewScan(t, expr.Cmp{
		Op: expr.LT,
		L:  t.Schema.Col("l_quantity"),
		R:  expr.Const{V: expr.Int(maxQty)},
	})
	return plan.NewAgg(scan,
		[]int{t.Schema.MustIndex("l_quantity")},
		[]plan.AggSpec{
			{Func: plan.Sum, Arg: revenue, Name: "revenue"},
			{Func: plan.Avg, Arg: revenue, Name: "avg_revenue"},
			{Func: plan.Count, Name: "n"},
		})
}

// OrderedRevenueQuery builds the sort-dominated analytical shape: per-row
// revenue over a quantity-bounded slice of lineitem, ordered by revenue,
//
//	SELECT l_extendedprice * (1 - l_discount) AS revenue, l_orderkey
//	FROM lineitem WHERE l_quantity < :maxQty
//	ORDER BY revenue DESC
//
// — a Sort sitting directly on a scan→filter→project fragment, so the
// morsel-parallel sort path (worker-side run generation + loser-tree
// merge) applies.
func OrderedRevenueQuery(cat *catalog.Catalog, maxQty int64) plan.Node {
	t := cat.MustTable(Lineitem)
	price := t.Schema.Col("l_extendedprice")
	disc := t.Schema.Col("l_discount")
	revenue := expr.Arith{
		Op: expr.Mul,
		L:  price,
		R:  expr.Arith{Op: expr.Sub, L: expr.Const{V: expr.Float(1)}, R: disc},
	}
	proj := plan.NewProject(
		plan.NewScan(t, expr.Cmp{
			Op: expr.LT,
			L:  t.Schema.Col("l_quantity"),
			R:  expr.Const{V: expr.Int(maxQty)},
		}),
		[]expr.Expr{revenue, t.Schema.Col("l_orderkey")},
		[]string{"revenue", "l_orderkey"},
		[]expr.Kind{expr.KindFloat, expr.KindInt},
	)
	return plan.NewSort(proj, plan.SortKey{Col: 0, Desc: true})
}
