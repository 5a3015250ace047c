package sql

import (
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/tpch"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x >= 1.5 AND name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "SELECT" || toks[0].kind != tokKeyword {
		t.Fatalf("first token = %+v", toks[0])
	}
	// The escaped quote collapses.
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatal("escaped string literal not lexed")
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Fatal("missing EOF token")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("SELECT -- comment here\n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Fatalf("tokens = %d, want 3", len(toks))
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Fatal("bad character should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT * FROM lineitem WHERE l_quantity = 7")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Items[0].Star {
		t.Fatal("expected star select")
	}
	if stmt.From.Name != "lineitem" {
		t.Fatalf("from = %q", stmt.From.Name)
	}
	bo, ok := stmt.Where.(BinOp)
	if !ok || bo.Op != "=" {
		t.Fatalf("where = %v", stmt.Where)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter than OR.
	root := stmt.Where.(BinOp)
	if root.Op != "OR" {
		t.Fatalf("root op = %s, want OR", root.Op)
	}
	if right := root.R.(BinOp); right.Op != "AND" {
		t.Fatalf("right op = %s, want AND", right.Op)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	add := stmt.Items[0].Expr.(BinOp)
	if add.Op != "+" {
		t.Fatalf("root = %s", add.Op)
	}
	if mul := add.R.(BinOp); mul.Op != "*" {
		t.Fatalf("rhs = %s, want *", mul.Op)
	}
}

func TestParseFullQ5(t *testing.T) {
	q := `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	      FROM region
	      JOIN nation ON n_regionkey = r_regionkey
	      JOIN customer ON c_nationkey = n_nationkey
	      JOIN orders ON o_custkey = c_custkey
	      JOIN lineitem ON l_orderkey = o_orderkey
	      JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
	      WHERE r_name = 'ASIA'
	        AND o_orderdate >= DATE '1994-01-01'
	        AND o_orderdate < DATE '1995-01-01'
	      GROUP BY n_name
	      ORDER BY revenue DESC`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Joins) != 5 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Name != "n_name" {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
	if !stmt.OrderBy[0].Desc {
		t.Fatal("order by should be DESC")
	}
	if stmt.Items[1].Agg != "SUM" || stmt.Items[1].Alias != "revenue" {
		t.Fatalf("agg item = %+v", stmt.Items[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP x",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t extra",
		"SELECT a FROM t JOIN u",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	and := stmt.Where.(BinOp)
	if _, ok := and.L.(BetweenNode); !ok {
		t.Fatalf("left = %T, want BetweenNode", and.L)
	}
	in := and.R.(InNode)
	if len(in.List) != 3 {
		t.Fatalf("in list = %d", len(in.List))
	}
}

func TestParseLimitAndSemicolon(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t LIMIT 10;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit != 10 {
		t.Fatalf("limit = %d", stmt.Limit)
	}
}

// End-to-end: the SQL front end produces the same Q5 answers as the
// programmatic plan builder.
func TestSQLQ5MatchesProgrammaticPlan(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)

	sqlPlan, err := Plan(e.Catalog(), `
		SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON n_regionkey = r_regionkey
		JOIN customer ON c_nationkey = n_nationkey
		JOIN orders ON o_custkey = c_custkey
		JOIN lineitem ON l_orderkey = o_orderkey
		JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		WHERE r_name = 'ASIA'
		  AND o_orderdate >= DATE '1994-01-01'
		  AND o_orderdate < DATE '1995-01-01'
		GROUP BY n_name
		ORDER BY revenue DESC`)
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, _ := e.Exec(sqlPlan)
	progRes, _ := e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))

	if len(sqlRes.Rows) != len(progRes.Rows) {
		t.Fatalf("row counts differ: sql %d vs programmatic %d",
			len(sqlRes.Rows), len(progRes.Rows))
	}
	for i := range sqlRes.Rows {
		if sqlRes.Rows[i][0].S != progRes.Rows[i][0].S {
			t.Fatalf("row %d nation differs: %v vs %v", i, sqlRes.Rows[i], progRes.Rows[i])
		}
		if d := sqlRes.Rows[i][1].F - progRes.Rows[i][1].F; d > 1e-6 || d < -1e-6 {
			t.Fatalf("row %d revenue differs", i)
		}
	}
}

func TestSQLSelectionQuery(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem)

	p, err := Plan(e.Catalog(), "SELECT * FROM lineitem WHERE l_quantity = 25")
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, _ := e.Exec(p)
	progRes, _ := e.Exec(tpch.QuantityQuery(e.Catalog(), 25))
	if len(sqlRes.Rows) != len(progRes.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(sqlRes.Rows), len(progRes.Rows))
	}
}

func TestSQLProjectionAndAliases(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem)

	p, err := Plan(e.Catalog(),
		"SELECT l_quantity AS q, l_extendedprice * 2 AS double_price FROM lineitem LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Exec(p)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Schema.MustIndex("q") != 0 || res.Schema.MustIndex("double_price") != 1 {
		t.Fatal("aliases not applied")
	}
}

func TestSQLAggregatesWithoutGroupBy(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem, tpch.Nation)

	p, err := Plan(e.Catalog(), "SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Exec(p)
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate returned %d rows", len(res.Rows))
	}
	row := res.Rows[0]
	total := e.Catalog().MustTable(tpch.Lineitem).Heap.NumRows()
	if row[0].I != total {
		t.Fatalf("count = %d, want %d", row[0].I, total)
	}
	if row[1].AsFloat() != 1 || row[2].AsFloat() != 50 {
		t.Fatalf("min/max = %v/%v, want 1/50", row[1], row[2])
	}
	if k := p.Schema().Columns()[1].Kind; k != expr.KindInt {
		t.Fatalf("MIN(l_quantity) declares %v, want int", k)
	}

	// MIN/MAX over a string column return a string and declare one.
	p, err = Plan(e.Catalog(), "SELECT MIN(n_name) AS lo, MAX(n_name) AS hi FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	res, _ = e.Exec(p)
	if row := res.Rows[0]; row[0].S != "ALGERIA" || row[1].S != "VIETNAM" {
		t.Fatalf("min/max(n_name) = %v/%v, want ALGERIA/VIETNAM", row[0], row[1])
	}
	for i, c := range p.Schema().Columns() {
		if c.Kind != expr.KindString {
			t.Fatalf("column %d (%s) declares %v, want string", i, c.Name, c.Kind)
		}
	}
}

func TestBindErrors(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Lineitem, tpch.Nation)

	bad := []string{
		"SELECT * FROM missing_table",
		"SELECT nope FROM lineitem",
		"SELECT l_quantity FROM lineitem GROUP BY l_orderkey",
		"SELECT * FROM lineitem JOIN lineitem ON 1 = 1", // duplicate + no key
		"SELECT * FROM lineitem ORDER BY l_quantity + 1",
		// SUM and AVG accept only numeric arguments.
		"SELECT n_regionkey, AVG(n_name) FROM nation GROUP BY n_regionkey",
		"SELECT n_regionkey, SUM(n_name) FROM nation GROUP BY n_regionkey",
		"SELECT SUM(l_shipdate) FROM lineitem",
		"SELECT AVG(l_quantity < 5) FROM lineitem",
	}
	for _, q := range bad {
		if _, err := Plan(cat, q); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
}

func TestWherePushdownIntoScan(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Lineitem)
	p, err := Plan(cat, "SELECT * FROM lineitem WHERE l_quantity = 3")
	if err != nil {
		t.Fatal(err)
	}
	// The single-table predicate lands in the scan, not a Filter node.
	if !strings.HasPrefix(p.Describe(), "Scan(lineitem, filter=") {
		t.Fatalf("plan root = %s, want filtered scan", p.Describe())
	}
}
