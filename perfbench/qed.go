package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/mqo"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// qed_shared: the paper's QED mechanism where the working set is larger
// than the buffer pool. Seeded batches of eight run through
// core.QED{SharedScan: true}.RunBatch: every third batch holds mergeable
// point selections (mqo OR-chain merge plus splitter), the others
// non-mergeable band selections (one shared scanshare pass). A merged
// batch takes about four times as long as a shared one, so with these
// shares the median statement sits inside the shared batches and the p99
// inside the merged ones, not on the boundary between them. The pool
// holds about a quarter of lineitem, so a pass misses every page.
const (
	qedSF        = 0.01
	qedPoolBytes = 7 << 17 // 0.875 MiB: about a quarter of lineitem at qedSF
	qedBatch     = 8
	qedBatches   = 18 // per round: 6 merged, 12 shared
)

// qedBatchStmts is one batch of the sequence.
type qedBatchStmts struct {
	merged  bool
	queries []workload.Query
	refs    []digest
}

// qedStatements returns the seeded batches for one catalog.
func qedStatements(seed uint64, sys *core.System) []qedBatchStmts {
	rng := rand.New(rand.NewPCG(seed, 0x0ed))
	cat := sys.Engine.Catalog()
	out := make([]qedBatchStmts, qedBatches)
	for b := range out {
		out[b].merged = b%3 == 0
		plans := make([]plan.Node, qedBatch)
		// Merged batches select distinct quantities, so the splitter
		// routes every row to exactly one query.
		qty := rng.Perm(50)
		for i := range plans {
			if out[b].merged {
				plans[i] = tpch.QuantityQuery(cat, int64(qty[i]+1))
			} else {
				plans[i] = tpch.QuantityBandQuery(cat, 1+rng.Int64N(48), 2)
			}
		}
		out[b].queries = workload.NewQueries(fmt.Sprintf("b%d.", b), plans)
	}
	return out
}

func qedSystem(seed uint64, st *setupTimer) *core.System {
	prof := engine.ProfileCommercial()
	prof.Workers = runtime.NumCPU()
	prof.PoolBytes = qedPoolBytes
	t0 := time.Now()
	sys := core.NewSystem(prof)
	tpch.NewGenerator(qedSF, seed).Load(sys.Engine.Catalog(), tpch.Lineitem)
	t1 := time.Now()
	sys.Engine.WarmAll()
	st.add(t1.Sub(t0), time.Since(t1))
	return sys
}

// qedResult is one executed batch.
type qedResult struct {
	lat    time.Duration // wall time in the program, without digesting
	start  time.Time
	c0, c1 sim.Time
	resp   []float64 // simulated response per query, ms
	bad    int
	merged bool // took the merge path: one engine statement
}

// runQEDBatch runs one batch through QED.RunBatch and checks each query's
// row count.
func runQEDBatch(q *core.QED, b *qedBatchStmts) qedResult {
	clock := q.Sys.Machine.Clock
	c0 := clock.Now()
	stmts0 := obsv.Queries.Load()
	t0 := time.Now()
	res := q.RunBatch(b.queries)
	lat := time.Since(t0)
	out := qedResult{lat: lat, start: t0, c0: c0, c1: clock.Now(), merged: obsv.Queries.Load()-stmts0 == 1}
	for i, qr := range res.Queries {
		out.resp = append(out.resp, qr.Response().Seconds()*1e3)
		if qr.Rows != b.refs[i].rows {
			out.bad++
		}
	}
	return out
}

// qedOutcome is what one phase observed.
type qedOutcome struct {
	tally
	round1      []qedResult
	mergeMissed int
}

// qedLoop runs the batches round after round until the deadline,
// finishing at least one full round. run executes one batch.
func qedLoop(batches []qedBatchStmts, until time.Time, run func(i int) (qedResult, error)) (*qedOutcome, error) {
	out := &qedOutcome{}
	err := rounds(len(batches), until, func(round, i int) error {
		res, err := run(i)
		if err != nil {
			return err
		}
		out.add(res.lat, len(batches[i].queries), res.bad)
		if batches[i].merged && !res.merged {
			out.mergeMissed++
		}
		if round == 0 {
			out.round1 = append(out.round1, res)
		}
		return nil
	})
	return out, err
}

func newQED(sys *core.System) *core.QED {
	return &core.QED{Sys: sys, BatchSize: qedBatch, Strategy: mqo.OrChain, SharedScan: true}
}

// qedRound1 returns the first round's simulated window and per-statement
// responses.
func qedRound1(out *qedOutcome) (sim.Time, sim.Time, []float64) {
	var resp []float64
	for _, b := range out.round1 {
		resp = append(resp, b.resp...)
	}
	return out.round1[0].c0, out.round1[len(out.round1)-1].c1, resp
}

// sameSim reports the first batch whose simulated window differs.
func sameSim(r *report, what string, a, b *qedOutcome) {
	for i := range a.round1 {
		x, y := a.round1[i], b.round1[i]
		if x.c1.Sub(x.c0) != y.c1.Sub(y.c0) {
			r.fail("%s: batch %d simulated duration %v vs %v", what, i, x.c1.Sub(x.c0), y.c1.Sub(y.c0))
			return
		}
	}
}

func runQEDShared(o opts) (*report, error) {
	r := newReport()
	var st setupTimer
	var systems []*core.System
	for i := 0; i < setupCopies; i++ {
		systems = append(systems, qedSystem(o.seed, &st))
	}
	sys, twin, spare := systems[0], systems[1], systems[2]
	batches := qedStatements(o.seed, sys)
	// References: every query run privately, one at a time, on the twin.
	for b, tb := range qedStatements(o.seed, twin) {
		for _, q := range tb.queries {
			var d digest
			if _, err := drain(twin.Engine.Query(q.Plan), &d); err != nil {
				return nil, err
			}
			batches[b].refs = append(batches[b].refs, d)
		}
	}
	table := sys.Engine.MustTable(tpch.Lineitem).Heap
	fmt.Printf("data: sf %g lineitem, %.1f MB in %d pages; buffer pool %.1f MB; %d batches of %d per round\n",
		qedSF, float64(table.Bytes())/(1<<20), table.NumPages(), float64(qedPoolBytes)/(1<<20), qedBatches, qedBatch)

	if o.traced {
		r.set("tpch.load_s", median(st.load))
		r.set("engine.warm_s", median(st.warm))
		return r, qedTraced(o, r, sys, spare, batches)
	}
	r.set("setup_s", median(st.total))

	q := newQED(sys)
	snap0 := obsv.Default().Snapshot()
	ph := startPhase()
	out, err := qedLoop(batches, deadline(o, 1), func(i int) (qedResult, error) {
		return runQEDBatch(q, &batches[i]), nil
	})
	if err != nil {
		return nil, err
	}
	ph.stop()
	snap1 := obsv.Default().Snapshot()
	r.setEndToEnd(ph, &out.tally)

	// Path taken: shared passes ran, the pool missed, and every mergeable
	// batch ran as one merged statement.
	r.check(snap1.Counter(obsv.MetricSharedPasses) > snap0.Counter(obsv.MetricSharedPasses), "no shared scan passes")
	r.check(snap1.Counter(obsv.MetricPoolMisses) > snap0.Counter(obsv.MetricPoolMisses), "no buffer pool misses")
	r.check(out.mergeMissed == 0, "%d mergeable batches did not take the merge path", out.mergeMissed)
	c0, c1, resp := qedRound1(out)
	r.setSim(sys, c0, c1, resp)

	// The first round replayed on the spare copy gives the retained heap
	// and must reproduce the measured run's simulated time and joules.
	sb := qedStatements(o.seed, spare)
	for i := range sb {
		sb[i].refs = batches[i].refs
	}
	err = r.setRetained(len(resp), func() error {
		sq := newQED(spare)
		rep, err := qedLoop(sb, time.Now(), func(i int) (qedResult, error) {
			return runQEDBatch(sq, &sb[i]), nil
		})
		if err != nil {
			return err
		}
		r.check(rep.bad == 0, "replay answered %d statements wrongly", rep.bad)
		sameSim(r, "replay", out, rep)
		e0, e1, _ := qedRound1(rep)
		ja, jb := sys.Machine.CPU.Trace().Energy(c0, c1), spare.Machine.CPU.Trace().Energy(e0, e1)
		r.check(ja == jb, "replay: first-round joules %v vs %v", ja, jb)
		return nil
	}, systems, q, out, batches, sb)
	return r, err
}

// qedTraced measures the layers: a third of the time untraced on the
// spare copy (the counts, the baseline for tracing overhead and the
// reference for the decomposition), then the traced loop on the measured
// copy, which performs QED.RunBatch's steps itself: mqo.Merge,
// Engine.Query, Splitter.Add and Finish and the CPU.Run of the client
// cycles for merged batches, and workload.RunShared's admission and
// round-robin drain for shared ones. Its first round must reproduce the
// untraced first round's simulated joules exactly.
func qedTraced(o opts, r *report, sys, spare *core.System, batches []qedBatchStmts) error {
	sb := qedStatements(o.seed, spare)
	for i := range sb {
		sb[i].refs = batches[i].refs
	}
	sq := newQED(spare)
	steps0 := spare.Machine.CPU.Trace().Steps()
	snap0 := obsv.Default().Snapshot()
	ph := startPhase()
	base, err := qedLoop(sb, deadline(o, 1.0/3), func(i int) (qedResult, error) {
		return runQEDBatch(sq, &sb[i]), nil
	})
	if err != nil {
		return err
	}
	ph.stop()
	snap1 := obsv.Default().Snapshot()
	n := float64(base.attempted)
	r.set("sim.trace_steps_per_stmt", float64(spare.Machine.CPU.Trace().Steps()-steps0)/n)
	r.setRuntimeLayers(ph, int(n))
	r.setCountLayers(snap0, snap1, n)

	tr := newTracer()
	stmtID := 0
	traced, err := qedLoop(batches, deadline(o, 2.0/3), func(i int) (qedResult, error) {
		stmtID++
		return qedTracedBatch(tr, stmtID, sys, &batches[i])
	})
	if err != nil {
		return err
	}
	sameSim(r, "traced decomposition", base, traced)
	c0, c1, _ := qedRound1(base)
	e0, e1, _ := qedRound1(traced)
	ja, jb := spare.Machine.CPU.Trace().Energy(c0, c1), sys.Machine.CPU.Trace().Energy(e0, e1)
	r.check(ja == jb, "traced decomposition: first-round joules %v, untraced %v", jb, ja)
	fmt.Printf("first-round CPU joules: untraced %v, traced decomposition %v\n", ja, jb)

	self := tr.selfTimes()
	r.set("mqo.merge_us", self["mqo.merge"].meanSelf(time.Microsecond))
	r.set("mqo.split_ms", self["mqo.split"].meanSelf(time.Millisecond))
	r.set("engine.merged_exec_ms", self["engine.merged_exec"].meanSelf(time.Millisecond))
	r.set("workload.shared_batch_ms", self["workload.shared_batch"].meanSelf(time.Millisecond))
	return r.finishTrace(o, tr, &base.tally, &traced.tally)
}

// qedTracedBatch runs one batch step by step, recording a span per step,
// and checks every query's full result digest.
func qedTracedBatch(tr *tracer, id int, sys *core.System, b *qedBatchStmts) (qedResult, error) {
	clock := sys.Machine.Clock
	e := sys.Engine
	plans := make([]plan.Node, len(b.queries))
	for i, q := range b.queries {
		plans[i] = q.Plan
	}
	res := qedResult{c0: clock.Now(), start: time.Now()}
	digests := make([]digest, len(plans))
	var root, child int
	if b.merged {
		res.merged = true
		t0 := time.Now()
		merged, err := mqo.Merge(plans, mqo.OrChain)
		if err != nil {
			return res, err
		}
		t1 := time.Now()
		rows := e.Query(merged.Plan)
		split := merged.NewSplitter()
		var splitDur time.Duration
		for {
			batch, err := rows.Next()
			if err != nil {
				return res, err
			}
			if batch == nil {
				break
			}
			rs := batch.Rows()
			ts := time.Now()
			split.Add(rs)
			splitDur += time.Since(ts)
		}
		ts := time.Now()
		perQuery, cycles := split.Finish()
		splitDur += time.Since(ts)
		t2 := time.Now()
		c := sys.Machine.CPU
		c.SetParallelism(1)
		c.Run(cycles*e.Profile().Amplification(), cpu.MemStall)
		t3 := time.Now()
		res.lat = t3.Sub(res.start)
		root = tr.add("stmt", 0, id, res.start, t3, false)
		tr.add("mqo.merge", root, id, t0, t1, false)
		child = tr.add("engine.merged_exec", root, id, t1, t2, false)
		tr.addDur("mqo.split", child, id, t1, splitDur)
		tr.add("qed.client_cpu", root, id, t2, t3, false)
		end := clock.Now().Sub(res.c0)
		for i, rows := range perQuery {
			digests[i].addRows(rows)
			res.resp = append(res.resp, end.Seconds()*1e3)
		}
	} else {
		if _, err := mqo.Merge(plans, mqo.OrChain); err == nil {
			return res, fmt.Errorf("band batch unexpectedly mergeable")
		}
		t0 := time.Now()
		sess := e.NewSharedSession()
		sess.SetExpectedConcurrency(len(plans))
		streams := make([]*engine.Rows, len(plans))
		for i, p := range plans {
			streams[i] = sess.Query(p)
		}
		ends := make([]sim.Duration, len(plans))
		var own time.Duration
		for remaining := len(streams); remaining > 0; {
			for i, rs := range streams {
				if rs == nil {
					continue
				}
				batch, err := rs.Next()
				if err != nil {
					return res, err
				}
				if batch == nil {
					ends[i] = clock.Now().Sub(res.c0)
					rs.Stats()
					streams[i] = nil
					remaining--
					continue
				}
				td := time.Now()
				digests[i].addBatch(batch)
				own += time.Since(td)
			}
		}
		t1 := time.Now()
		res.lat = t1.Sub(res.start) - own
		root = tr.add("stmt", 0, id, res.start, t1, false)
		child = tr.add("workload.shared_batch", root, id, t0, t1, false)
		tr.addDur("bench.digest", child, id, t0, own)
		for _, d := range ends {
			res.resp = append(res.resp, d.Seconds()*1e3)
		}
	}
	res.c1 = clock.Now()
	for i, d := range digests {
		if !d.equal(b.refs[i], false) {
			res.bad++
		}
	}
	return res, nil
}
