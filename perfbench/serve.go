package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/experiments"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/server"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

// serve_point: one closed-loop client on one keep-alive connection sends
// short, well-typed SQL to the live HTTP handler over loopback. The request
// path (HTTP, JSON, parse/bind, admission rendezvous, statement start and
// finish, profiling) does most of the work; execution does little.
const serveSF = 0.01

// serveStatements returns the seeded statement sequence: fixed shares of
// each statement shape, seeded keys, seeded order. The 650 statements on
// the small tables (nation, region, supplier) are the cheap ones, so the
// median statement falls among them and not on the boundary with the
// customer and orders scans; the orders scans set the p99.
func serveStatements(seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	nCust := tpch.Cardinality(tpch.Customer, serveSF)
	nOrd := tpch.Cardinality(tpch.Orders, serveSF)
	shapes := []struct {
		n   int
		gen func() string
	}{
		{450, func() string {
			return fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", rng.IntN(25))
		}},
		{200, func() string {
			return fmt.Sprintf("SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = %d", rng.Int64N(nCust)+1)
		}},
		{150, func() string {
			return fmt.Sprintf("SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", rng.Int64N(nOrd)+1)
		}},
		{100, func() string {
			return fmt.Sprintf("SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey = %d", rng.IntN(25))
		}},
		{100, func() string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM supplier WHERE s_nationkey = %d", rng.IntN(25))
		}},
	}
	var out []string
	for _, s := range shapes {
		for i := 0; i < s.n; i++ {
			out = append(out, s.gen())
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// wireAnswer is the part of a /query response that must match the
// reference: the rows and columns as compact JSON, and the row count.
type wireAnswer struct {
	cols, rows []byte
	n          int64
}

// wireResponse decodes a /query response body.
type wireResponse struct {
	Columns     json.RawMessage `json:"columns"`
	Rows        json.RawMessage `json:"rows"`
	RowsOut     int64           `json:"rows_out"`
	ResponseSec float64         `json:"response_seconds"`
	Joules      float64         `json:"joules"`
	Error       string          `json:"error"`
}

// referenceValue renders one value the way the wire format documents it.
func referenceValue(v expr.Value) any {
	switch v.Kind {
	case expr.KindNull:
		return nil
	case expr.KindBool:
		return v.I != 0
	case expr.KindInt:
		return v.I
	case expr.KindFloat:
		return v.F
	case expr.KindString:
		return v.S
	case expr.KindDate:
		return v.DateString()
	}
	return v.String()
}

// serveReferences answers every distinct statement through the embedded
// path (sql.Plan + Engine.Exec) on the reference twin.
func serveReferences(e *engine.Engine, stmts []string) (map[string]wireAnswer, error) {
	refs := map[string]wireAnswer{}
	for _, q := range stmts {
		if _, ok := refs[q]; ok {
			continue
		}
		p, err := sql.Plan(e.Catalog(), q)
		if err != nil {
			return nil, fmt.Errorf("reference plan %q: %w", q, err)
		}
		res, st := e.Exec(p)
		var a wireAnswer
		a.n = st.RowsOut
		var names []string
		for _, c := range res.Schema.Columns() {
			names = append(names, c.Name)
		}
		a.cols, _ = json.Marshal(names)
		if len(res.Rows) > 0 {
			rows := make([][]any, len(res.Rows))
			for i, r := range res.Rows {
				rows[i] = make([]any, len(r))
				for j, v := range r {
					rows[i][j] = referenceValue(v)
				}
			}
			a.rows, _ = json.Marshal(rows)
		}
		refs[q] = a
	}
	return refs, nil
}

// serveClient is the closed-loop client: one keep-alive connection.
type serveClient struct {
	url    string
	client *http.Client
	tr     *http.Transport
	body   bytes.Buffer
	cbuf   bytes.Buffer
}

func newServeClient(url string) *serveClient {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &serveClient{url: url + "/query", client: &http.Client{Transport: tr}, tr: tr}
}

// do sends one statement and reads the whole response; the returned
// latency covers send to last byte.
func (c *serveClient) do(q string) (time.Duration, int, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(q))
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return lat, resp.StatusCode, err
}

// check decodes the last response into wr and compares it with the
// reference.
func (c *serveClient) check(ref wireAnswer, wr *wireResponse) bool {
	if err := json.Unmarshal(c.body.Bytes(), wr); err != nil || wr.Error != "" || wr.RowsOut != ref.n {
		return false
	}
	return c.compactEqual(wr.Columns, ref.cols) && c.compactEqual(wr.Rows, ref.rows)
}

func (c *serveClient) compactEqual(raw json.RawMessage, want []byte) bool {
	if len(raw) == 0 || want == nil {
		return len(raw) == 0 && want == nil
	}
	c.cbuf.Reset()
	if err := json.Compact(&c.cbuf, raw); err != nil {
		return false
	}
	return bytes.Equal(c.cbuf.Bytes(), want)
}

func (c *serveClient) close() { c.tr.CloseIdleConnections() }

// liveServer is one system served over loopback HTTP.
type liveServer struct {
	core *server.Core
	ts   *httptest.Server
}

// startCore starts an admission scheduler with the serving defaults and
// private admission: with one client, shared admission would wait for its
// real-time FlushWait timer instead of measuring the program.
func startCore(sys *core.System) *server.Core {
	cfg := server.DefaultConfig()
	cfg.Policy = server.PolicyPrivate
	c := server.NewCore(cfg, sys)
	c.Start()
	return c
}

// stopCore drains a scheduler; afterwards its system may be read from
// this goroutine.
func stopCore(c *server.Core) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.Shutdown(ctx)
}

func startServer(sys *core.System) *liveServer {
	c := startCore(sys)
	return &liveServer{core: c, ts: httptest.NewServer(server.NewServer(c, "").Handler())}
}

// stop closes the listener, waits for handlers, and drains the scheduler.
func (l *liveServer) stop() error {
	l.ts.Close()
	return stopCore(l.core)
}

// serveOutcome is what one closed-loop phase observed.
type serveOutcome struct {
	tally
	non200          int64
	round1J, round1 []float64 // simulated joules and response (ms) of the first round
}

// serveTrace is called after every traced statement has been checked,
// with the statement, its latency and the bytes allocated during its
// round trip.
type serveTrace func(q string, lat time.Duration, alloc uint64) error

// serveLoop runs the statement sequence round after round until the
// deadline, finishing at least one full round.
func serveLoop(url string, stmts []string, refs map[string]wireAnswer, until time.Time, trace serveTrace) (*serveOutcome, error) {
	cl := newServeClient(url)
	defer cl.close()
	out := &serveOutcome{}
	var wr wireResponse
	var a0 uint64
	err := rounds(len(stmts), until, func(round, i int) error {
		q := stmts[i]
		if trace != nil {
			a0 = allocBytes()
		}
		lat, status, err := cl.do(q)
		if err != nil {
			return err
		}
		var alloc uint64
		if trace != nil {
			alloc = allocBytes() - a0
		}
		wr = wireResponse{}
		bad := 0
		if status != http.StatusOK {
			out.non200++
		}
		if status != http.StatusOK || !cl.check(refs[q], &wr) {
			bad = 1
		}
		out.add(lat, 1, bad)
		if round == 0 {
			out.round1J = append(out.round1J, wr.Joules)
			out.round1 = append(out.round1, wr.ResponseSec*1e3)
		}
		if trace != nil {
			return trace(q, lat, alloc)
		}
		return nil
	})
	return out, err
}

func runServePoint(o opts) (*report, error) {
	r := newReport()
	var st setupTimer
	var systems []*core.System
	for i := 0; i < setupCopies; i++ {
		t0 := time.Now()
		systems = append(systems, experiments.ServerSystem(experiments.Config{SF: serveSF, Amplification: 1, Seed: o.seed}))
		st.add(time.Since(t0), 0)
	}
	sys, twin, spare := systems[0], systems[1], systems[2]
	// ServerSystem loads and warms in one call; warming alone is timed by
	// re-warming a cold copy.
	var warm []float64
	for i := 0; i < 3; i++ {
		spare.Engine.ColdStart()
		t0 := time.Now()
		spare.Engine.WarmAll()
		warm = append(warm, time.Since(t0).Seconds())
	}
	stmts := serveStatements(o.seed)
	refs, err := serveReferences(twin.Engine, stmts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("data: sf %g, %.1f MB in %d tables; buffer pool %d MB; %d-statement sequence, %d distinct\n",
		serveSF, float64(sys.Engine.Catalog().TotalBytes())/(1<<20), len(sys.Engine.Catalog().Names()),
		sys.Engine.Pool().Capacity()>>20, len(stmts), len(refs))

	t0 := time.Now()
	live := startServer(sys)
	startup := time.Since(t0)

	if o.traced {
		r.set("tpch.load_s", median(st.total)-median(warm))
		r.set("engine.warm_s", median(warm))
		return r, serveTraced(o, r, live, sys, spare, stmts, refs)
	}
	r.set("setup_s", median(st.total)+startup.Seconds())

	snap0 := obsv.Default().Snapshot()
	ph := startPhase()
	out, err := serveLoop(live.ts.URL, stmts, refs, deadline(o, 1), nil)
	if err != nil {
		return nil, err
	}
	ph.stop()
	if err := live.stop(); err != nil {
		return nil, err
	}
	snap1 := obsv.Default().Snapshot()
	r.setEndToEnd(ph, &out.tally)

	// Path taken: every statement was a session, answered 200, and was its
	// own admission batch.
	n := out.attempted
	sessions := snap1.Counter(obsv.MetricServerSessions) - snap0.Counter(obsv.MetricServerSessions)
	r.check(sessions == n, "server sessions advanced by %d, want %d", sessions, n)
	r.check(out.non200 == 0, "%d responses were not 200", out.non200)
	r.check(int64(len(live.core.AdmissionLog())) == n, "admission log holds %d batches, want %d", len(live.core.AdmissionLog()), n)

	// The first round replayed through the same path on the spare copy
	// gives the retained heap and the simulated metrics, read once its
	// scheduler has stopped. It must reproduce the measured run's
	// per-statement joules and response times bit for bit.
	var replay *liveServer
	err = r.setRetained(len(stmts), func() error {
		clock := spare.Machine.Clock
		c0 := clock.Now()
		replay = startServer(spare)
		rep, err := serveLoop(replay.ts.URL, stmts, refs, time.Now(), nil)
		if err != nil {
			return err
		}
		if err := replay.stop(); err != nil {
			return err
		}
		r.check(rep.bad == 0, "replay answered %d statements wrongly", rep.bad)
		for i := range out.round1J {
			if out.round1J[i] != rep.round1J[i] || out.round1[i] != rep.round1[i] {
				r.fail("statement %d: simulated joules/response %v/%v, replay %v/%v", i,
					out.round1J[i], out.round1[i], rep.round1J[i], rep.round1[i])
				break
			}
		}
		r.setSim(spare, c0, clock.Now(), rep.round1)
		return nil
	}, systems, live, out, refs, stmts)
	runtime.KeepAlive(replay)
	return r, err
}

// serveTraced measures the layers: a third of the time untraced (the
// counts, and the baseline for tracing overhead), then the traced loop.
// Each statement's round trip is its root span, server.http. The handler
// calls sql.Parse, sql.Bind and Core.Do, and Core.Do runs the engine, so
// those are repeated out of band on the twin, and their durations come
// off the round trip: server.http's self time is the HTTP round trip minus
// parse, bind and Core.Do, and server.do's is Core.Do minus the engine.
func serveTraced(o opts, r *report, live *liveServer, sys, twin *core.System, stmts []string, refs map[string]wireAnswer) error {
	steps0 := sys.Machine.CPU.Trace().Steps()
	snap0 := obsv.Default().Snapshot()
	ph := startPhase()
	base, err := serveLoop(live.ts.URL, stmts, refs, deadline(o, 1.0/3), nil)
	if err != nil {
		return err
	}
	ph.stop()
	if err := live.stop(); err != nil {
		return err
	}
	snap1 := obsv.Default().Snapshot()
	n := float64(base.attempted)
	r.set("sim.trace_steps_per_stmt", float64(sys.Machine.CPU.Trace().Steps()-steps0)/n)
	r.set("server.log_entries_per_stmt", float64(len(live.core.AdmissionLog()))/n)
	r.setRuntimeLayers(ph, int(n))
	r.setCountLayers(snap0, snap1, n)

	live = startServer(sys)
	tc := startCore(twin)
	e := twin.Engine
	// drain runs the statement on the twin's engine the way the scheduler
	// does, collecting the rows, and returns its interval and allocation.
	drain := func(p plan.Node, profiled bool) (t0, t1 time.Time, alloc uint64, err error) {
		e.SetProfiling(profiled)
		defer e.SetProfiling(false)
		a0 := allocBytes()
		t0 = time.Now()
		var rows *engine.Rows
		if profiled {
			rows = e.QueryQueued(p, twin.Machine.Clock.Now())
		} else {
			rows = e.Query(p)
		}
		var got []expr.Row
		for {
			b, err := rows.Next()
			if err != nil {
				return t0, t1, 0, err
			}
			if b == nil {
				break
			}
			got = b.AppendRowsTo(got)
		}
		rows.Stats()
		return t0, time.Now(), allocBytes() - a0, nil
	}
	tr := newTracer()
	var httpAlloc, sqlAlloc, execAlloc float64
	var execOn, execOff time.Duration
	stmtID := 0
	traced, err := serveLoop(live.ts.URL, stmts, refs, deadline(o, 2.0/3), func(q string, lat time.Duration, alloc uint64) error {
		stmtID++
		end := time.Now()
		h := tr.add("server.http", 0, stmtID, end.Add(-lat), end, false)

		a0 := allocBytes()
		t0 := time.Now()
		stmt, err := sql.Parse(q)
		if err != nil {
			return err
		}
		t1 := time.Now()
		p, err := sql.Bind(e.Catalog(), stmt)
		if err != nil {
			return err
		}
		t2 := time.Now()
		a1 := allocBytes()
		resp := tc.Do(server.Request{SQL: q, Plan: p, CollectRows: true})
		t3 := time.Now()
		a2 := allocBytes()
		if resp.Err != nil || resp.RowsOut != refs[q].n {
			return fmt.Errorf("twin Core.Do %q: %v, %d rows", q, resp.Err, resp.RowsOut)
		}
		// Engine execution profiled and queued, as the scheduler runs it,
		// and unprofiled, for the cost of profiling. The order alternates
		// so neither run always finds the caches warmer.
		first := stmtID%2 == 0
		e0, e1, execA, err := drain(p, first)
		if err != nil {
			return err
		}
		f0, f1, offA, err := drain(p, !first)
		if err != nil {
			return err
		}
		if !first {
			e0, e1, f0, f1, execA = f0, f1, e0, e1, offA
		}
		tr.add("sql.parse", h, stmtID, t0, t1, true)
		tr.add("sql.bind", h, stmtID, t1, t2, true)
		d := tr.add("server.do", h, stmtID, t2, t3, true)
		tr.add("engine.exec", d, stmtID, e0, e1, true)
		execOn += e1.Sub(e0)
		execOff += f1.Sub(f0)
		sqlAlloc += float64(a1 - a0)
		execAlloc += float64(execA)
		httpAlloc += float64(alloc) - float64(a2-a0)
		return nil
	})
	if err = errors.Join(err, live.stop(), stopCore(tc)); err != nil {
		return err
	}

	k := float64(traced.attempted)
	self := tr.selfTimes()
	r.set("sql.parse_us", self["sql.parse"].meanSelf(time.Microsecond))
	r.set("sql.bind_us", self["sql.bind"].meanSelf(time.Microsecond))
	r.set("server.http_us", self["server.http"].meanSelf(time.Microsecond))
	r.set("server.admit_us", self["server.do"].meanSelf(time.Microsecond))
	r.set("engine.exec_us", self["engine.exec"].meanSelf(time.Microsecond))
	r.set("obsv.profiling_frac", float64(execOn)/float64(execOff)-1)
	r.set("sql.alloc_kb", sqlAlloc/1024/k)
	r.set("server.http_alloc_kb", httpAlloc/1024/k)
	r.set("engine.alloc_kb", execAlloc/1024/k)
	return r.finishTrace(o, tr, &base.tally, &traced.tally)
}
