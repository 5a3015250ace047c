package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// analytic: embedded Engine.Query plus drain, one client, the optimizer
// on, every page warm in a buffer pool larger than the data. Join build
// and probe, aggregation, sort and morsel scans do the work; the server
// and sql layers do none.
const analyticSF = 0.01

// analyticStmt is one statement of the sequence.
type analyticStmt struct {
	kind    string // q5, agg, sort or scan
	plan    plan.Node
	ordered bool // ORDER BY: results compare in order
	ref     digest
}

var analyticKinds = []string{"q5", "agg", "sort", "scan"}

// analyticStatements returns the seeded sequence for one catalog. Every
// seed runs the same statements, so the seed changes the data and the
// order but not the mix of work: all 25 Q5 instances (five regions by five
// start years), and ten each of agg, sort and scan with bounds spread
// evenly over l_quantity's range. With these shares the median latency
// falls among the q5 statements rather than on a boundary between kinds.
func analyticStatements(seed uint64, sys *core.System) []analyticStmt {
	rng := rand.New(rand.NewPCG(seed, 0xa7a1))
	cat := sys.Engine.Catalog()
	var out []analyticStmt
	for _, region := range tpch.RegionNames {
		for year := 1993; year <= 1997; year++ {
			out = append(out, analyticStmt{kind: "q5", ordered: true, plan: tpch.Q5(cat, region, year)})
		}
	}
	for k := int64(0); k < 10; k++ {
		out = append(out,
			analyticStmt{kind: "agg", plan: tpch.RevenueByQuantityQuery(cat, 14+4*k)},
			analyticStmt{kind: "sort", ordered: true, plan: tpch.OrderedRevenueQuery(cat, 12+4*k)},
			analyticStmt{kind: "scan", plan: tpch.QuantityBandQuery(cat, 1+5*k, 2)})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// analyticProfile is the commercial profile with one worker per CPU and
// the optimizer on. Its random background reads are off: this workload
// measures execution over warm pages, and a few statements delayed by a
// simulated seek would set its simulated p99.
func analyticProfile() engine.Profile {
	p := engine.ProfileCommercial()
	p.Workers = runtime.NumCPU()
	p.Objective = opt.Blend(0.5)
	p.BGIOProbPerPage = 0
	return p
}

// analyticSystem builds one copy of the data under a profile.
func analyticSystem(seed uint64, prof engine.Profile, st *setupTimer) *core.System {
	t0 := time.Now()
	sys := core.NewSystem(prof)
	tpch.NewGenerator(analyticSF, seed).Load(sys.Engine.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	t1 := time.Now()
	sys.Engine.WarmAll()
	st.add(t1.Sub(t0), time.Since(t1))
	return sys
}

// drain pulls a result to the end, folding every batch into a digest.
// It returns the time spent digesting, which is the benchmark's own work.
func drain(rows *engine.Rows, d *digest) (time.Duration, error) {
	var own time.Duration
	for {
		b, err := rows.Next()
		if err != nil {
			return own, err
		}
		if b == nil {
			return own, nil
		}
		t := time.Now()
		d.addBatch(b)
		own += time.Since(t)
	}
}

// rebind returns the statements of another copy of the data with the
// reference digests of stmts.
func rebind(stmts, other []analyticStmt) []analyticStmt {
	for i := range other {
		other[i].ref = stmts[i].ref
	}
	return other
}

// analyticResult is one executed statement.
type analyticResult struct {
	lat, own time.Duration // wall time in the program, and digesting
	start    time.Time
	c0, c1   sim.Time // simulated start and end
	simJ     float64
	ok       bool
}

func (a analyticResult) simResp() float64 { return a.c1.Sub(a.c0).Seconds() * 1e3 }

func runAnalyticStmt(sys *core.System, s *analyticStmt) (analyticResult, error) {
	clock := sys.Machine.Clock
	c0 := clock.Now()
	var d digest
	t0 := time.Now()
	rows := sys.Engine.Query(s.plan)
	own, err := drain(rows, &d)
	rows.Stats()
	lat := time.Since(t0) - own
	if err != nil {
		return analyticResult{}, err
	}
	c1 := clock.Now()
	return analyticResult{
		lat: lat, own: own, start: t0, c0: c0, c1: c1,
		simJ: float64(sys.Machine.CPU.Trace().Energy(c0, c1)),
		ok:   d.equal(s.ref, s.ordered),
	}, nil
}

// analyticOutcome is what one phase observed.
type analyticOutcome struct {
	tally
	round1 []analyticResult
}

// analyticLoop runs the sequence round after round until the deadline,
// finishing at least one full round. each, when non-nil, sees every
// statement after it ran.
func analyticLoop(sys *core.System, stmts []analyticStmt, until time.Time, each func(i int, res analyticResult)) (*analyticOutcome, error) {
	out := &analyticOutcome{}
	err := rounds(len(stmts), until, func(round, i int) error {
		res, err := runAnalyticStmt(sys, &stmts[i])
		if err != nil {
			return err
		}
		bad := 0
		if !res.ok {
			bad = 1
		}
		out.add(res.lat, 1, bad)
		if round == 0 {
			out.round1 = append(out.round1, res)
		}
		if each != nil {
			each(i, res)
		}
		return nil
	})
	return out, err
}

func runAnalytic(o opts) (*report, error) {
	r := newReport()
	var st setupTimer
	// The reference twin answers through hand-lowered serial plans: the
	// optimizer off and one worker.
	refProf := engine.ProfileCommercial()
	refProf.Workers = 1
	var systems []*core.System
	for i := 0; i < setupCopies; i++ {
		prof := analyticProfile()
		if i == 1 {
			prof = refProf
		}
		systems = append(systems, analyticSystem(o.seed, prof, &st))
	}
	sys, twin, spare := systems[0], systems[1], systems[2]

	stmts := analyticStatements(o.seed, sys)
	refStmts := analyticStatements(o.seed, twin)
	for i := range refStmts {
		rows := twin.Engine.Query(refStmts[i].plan)
		if _, err := drain(rows, &stmts[i].ref); err != nil {
			return nil, fmt.Errorf("reference %s: %w", refStmts[i].kind, err)
		}
	}
	fmt.Printf("data: sf %g, %.1f MB in %d tables; buffer pool %d MB (all warm); workers %d; %d-statement sequence\n",
		analyticSF, float64(sys.Engine.Catalog().TotalBytes())/(1<<20), len(sys.Engine.Catalog().Names()),
		sys.Engine.Pool().Capacity()>>20, sys.Engine.Profile().Workers, len(stmts))

	if o.traced {
		r.set("tpch.load_s", median(st.load))
		r.set("engine.warm_s", median(st.warm))
		return r, analyticTraced(o, r, sys, spare, stmts)
	}
	r.set("setup_s", median(st.total))

	snap0 := obsv.Default().Snapshot()
	ph := startPhase()
	out, err := analyticLoop(sys, stmts, deadline(o, 1), nil)
	if err != nil {
		return nil, err
	}
	ph.stop()
	snap1 := obsv.Default().Snapshot()
	r.setEndToEnd(ph, &out.tally)

	// Path taken: the optimizer planned every statement, sorts merged runs,
	// and joins probed in morsels.
	n := out.attempted
	planned := snap1.Histograms[obsv.MetricPlanningSecs].Count - snap0.Histograms[obsv.MetricPlanningSecs].Count
	r.check(planned == n, "optimizer planned %d of %d statements", planned, n)
	r.check(snap1.Counter(obsv.MetricMergePasses) > snap0.Counter(obsv.MetricMergePasses), "no sort merge passes")
	r.check(snap1.Counter(obsv.MetricProbeMorsels) > snap0.Counter(obsv.MetricProbeMorsels), "no join probe morsels")

	resp := make([]float64, len(out.round1))
	for i, a := range out.round1 {
		resp[i] = a.simResp()
	}
	r.setSim(sys, out.round1[0].c0, out.round1[len(resp)-1].c1, resp)

	// The first round replayed on the spare copy gives the retained heap
	// and must reproduce every statement's simulated response and joules
	// bit for bit.
	err = r.setRetained(len(stmts), func() error {
		rep, err := analyticLoop(spare, rebind(stmts, analyticStatements(o.seed, spare)), time.Now(), nil)
		if err != nil {
			return err
		}
		r.check(rep.bad == 0, "replay answered %d statements wrongly", rep.bad)
		for i, a := range out.round1 {
			b := rep.round1[i]
			if a.simJ != b.simJ || a.simResp() != b.simResp() {
				r.fail("statement %d: simulated joules/response %v/%v, replay %v/%v", i, a.simJ, a.simResp(), b.simJ, b.simResp())
				break
			}
		}
		return nil
	}, systems, out, stmts)
	return r, err
}

// analyticTraced measures the layers: a third of the time untraced (the
// counts, and the baseline for tracing overhead), then the traced loop.
// Engine.Query calls the optimizer inside; every statement's planning is
// repeated out of band on the twin to time it.
func analyticTraced(o opts, r *report, sys, twin *core.System, stmts []analyticStmt) error {
	steps0 := sys.Machine.CPU.Trace().Steps()
	snap0 := obsv.Default().Snapshot()
	ph := startPhase()
	base, err := analyticLoop(sys, stmts, deadline(o, 1.0/3), nil)
	if err != nil {
		return err
	}
	ph.stop()
	snap1 := obsv.Default().Snapshot()
	n := float64(base.attempted)
	r.set("sim.trace_steps_per_stmt", float64(sys.Machine.CPU.Trace().Steps()-steps0)/n)
	r.setRuntimeLayers(ph, int(n))
	r.setCountLayers(snap0, snap1, n)

	env, obj := twin.Engine.OptimizerEnv()
	twinStmts := analyticStatements(o.seed, twin)
	tr := newTracer()
	alloc := map[string]float64{}
	count := map[string]float64{}
	stmtID := 0
	var planErr error
	a0 := allocBytes()
	traced, err := analyticLoop(sys, stmts, deadline(o, 2.0/3), func(i int, res analyticResult) {
		s := &twinStmts[i]
		stmtID++
		ex := tr.add("exec."+s.kind, 0, stmtID, res.start, res.start.Add(res.lat+res.own), false)
		tr.addDur("bench.digest", ex, stmtID, res.start, res.own)
		alloc[s.kind] += float64(allocBytes() - a0)
		count[s.kind]++

		t0 := time.Now()
		lg, base, err := opt.Extract(s.plan)
		if err == nil {
			var ch *opt.Choice
			if ch, err = opt.Optimize(lg, base, env, obj); err == nil {
				_, err = lg.Lower(ch.Phys)
			}
		}
		if err != nil && planErr == nil {
			planErr = fmt.Errorf("plan %s: %w", s.kind, err)
		}
		tr.add("opt.plan", ex, stmtID, t0, time.Now(), true)
		a0 = allocBytes()
	})
	if err != nil {
		return err
	}
	if planErr != nil {
		return planErr
	}
	self := tr.selfTimes()
	r.set("opt.plan_us", self["opt.plan"].meanSelf(time.Microsecond))
	for _, k := range analyticKinds {
		r.set("exec."+k+"_ms", self["exec."+k].meanSelf(time.Millisecond))
		if count[k] > 0 {
			r.set("exec."+k+"_alloc_kb", alloc[k]/1024/count[k])
		}
	}
	return r.finishTrace(o, tr, &base.tally, &traced.tally)
}
