package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/program"
)

// kpoint is one kernel simulation point: a generated program on a machine.
type kpoint struct {
	name string
	im   *program.Image
	cfg  core.Config
	seed int64
	job  engine.Job // the same point as a memoisable engine job
}

// kernelState is what a kernel run carries across passes: the engine, its
// points, and the reference rows every later pass must reproduce.
type kernelState struct {
	e    *engine.Engine
	pts  []kpoint
	warm map[int]row // warm-up rows by point index, checked in the first pass

	ref     []row         // the first pass's rows
	results []core.Result // the first pass's results (per-layer counts)
	primed  bool          // the engine's result memo holds every point
}

// kernelPhase accumulates one phase's work and time. Throughputs are
// ratios of sums over the whole phase: on a shared host the speed of a
// single busy thread drifts over seconds, and the sums use every pass
// where a median over passes would keep only one.
type kernelPhase struct {
	points            int
	runTime           time.Duration
	committed, cycles uint64
	lookups           int
	lookupTime        time.Duration
	// latency holds every point's RunImage time: how long a caller waits
	// for one result (ttfr_s on the kernel workloads).
	latency []float64
	// passMIPS is each pass's sim_mips, in pass order.
	passMIPS []float64
}

// cachedLookups is how many memo-served points one pass times. A lookup
// takes a few microseconds, so a pass times tens of milliseconds of them:
// shorter windows let a single preemption swing the figure.
const cachedLookups = 20000

// runKernel runs kernel-miss or kernel-hit: set-up (repeated, median
// reported), then closed-loop passes over every point, one simulation at a
// time through engine.RunImage, until the deadline.
func runKernel(ctx context.Context, o options, w workload, rep *report, tr *tracer) error {
	var st *kernelState
	var setups []float64
	for r := 0; r < max(1, o.setupReps); r++ {
		st = nil
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if st, err = kernelSetup(ctx, o, w, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	rep.note("setup_s samples %d", len(setups))

	plain, traced := st.loop(ctx, rep, deadline(o.seconds), tr)
	plain.report(rep)
	if tr == nil {
		return nil
	}
	// A traced run alternates untraced and traced passes, so a drift in the
	// host's speed weighs on both alike; the overhead is the median over
	// consecutive (untraced, traced) pairs.
	var over []float64
	for i := range min(len(plain.passMIPS), len(traced.passMIPS)) {
		over = append(over, 100*(plain.passMIPS[i]/traced.passMIPS[i]-1))
	}
	rep.setLayer("trace.overhead_pct", median(over), "%")
	rep.setLayer("core.ns_per_instr", float64(traced.runTime)/float64(traced.committed), "ns")
	rep.setLayer("core.ns_per_cycle", float64(traced.runTime)/float64(traced.cycles), "ns")
	resultCounts(rep, st.results)
	return nil
}

// kernelSetup generates every program and builds every machine on a fresh
// engine. Each machine is built by one warm-up point on the first program,
// so the timed passes run on recycled machines.
func kernelSetup(ctx context.Context, o options, w workload, tr *tracer) (*kernelState, error) {
	st := &kernelState{e: engine.New(engine.WithWorkers(1)), warm: make(map[int]row)}
	for _, name := range w.programs {
		for v := 0; v < variants; v++ {
			params, seed := seededProgram(name, o.seed, v)
			prog := fmt.Sprintf("%s#%d", name, v)
			sp := tr.start("program.Generate", "setup/"+prog)
			im, err := st.e.Images().Get(ctx, params)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", prog, err)
			}
			for _, m := range w.machines {
				cfg := withBudget(m.cfg, o.kernelInstrs)
				pname := prog + "/" + m.name
				pcopy := params
				st.pts = append(st.pts, kpoint{
					name: pname, im: im, cfg: cfg, seed: seed,
					job: engine.Job{Name: pname, Config: cfg, Params: &pcopy, Seed: seed},
				})
			}
		}
	}
	for i := range w.machines {
		pt := st.pts[i]
		sp := tr.start("engine.RunImage", "setup/"+pt.name)
		res, err := st.e.RunImage(ctx, pt.cfg, pt.im, pt.seed)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", pt.name, err)
		}
		st.warm[i] = newRow(pt.name, res)
	}
	return st, nil
}

// loop runs passes until the deadline and returns the untraced and traced
// phases. Without a tracer every pass is untraced (at least two, so the
// memo-served pass is measured); with one, passes alternate untraced and
// traced (at least four, so each phase has a memo-served pass).
func (st *kernelState) loop(ctx context.Context, rep *report, until time.Time, tr *tracer) (plain, traced *kernelPhase) {
	plain, traced = &kernelPhase{}, &kernelPhase{}
	least := 2
	if tr != nil {
		least = 4
	}
	for pass := 0; pass < least || time.Now().Before(until); pass++ {
		if tr != nil && pass%2 == 1 {
			st.pass(ctx, rep, traced, tr, pass)
		} else {
			st.pass(ctx, rep, plain, nil, pass)
		}
	}
	return plain, traced
}

// pass simulates every point once, checks the rows, then times the engine's
// result memo serving the same points.
func (st *kernelState) pass(ctx context.Context, rep *report, ph *kernelPhase, tr *tracer, n int) {
	root := tr.start("bench.pass", fmt.Sprintf("pass%d", n))
	defer root.end()
	rows := make([]row, len(st.pts))
	results := make([]core.Result, len(st.pts))
	failed, why := 0, ""
	var simTime time.Duration
	var committed, cycles uint64
	for i, pt := range st.pts {
		sp := root.child("engine.RunImage")
		t := time.Now()
		res, err := st.e.RunImage(ctx, pt.cfg, pt.im, pt.seed)
		d := time.Since(t)
		sp.end()
		ph.latency = append(ph.latency, d.Seconds())
		if err != nil {
			failed++
			why = fmt.Sprintf("%s: %v", pt.name, err)
			continue
		}
		simTime += d
		committed += res.Committed
		cycles += uint64(res.Cycles)
		rows[i] = newRow(pt.name, res)
		results[i] = res
	}
	ph.points += len(st.pts)
	ph.passMIPS = append(ph.passMIPS, float64(committed)/simTime.Seconds()/1e6)
	ph.runTime += simTime
	ph.committed += committed
	ph.cycles += cycles

	chk := root.child("bench.check")
	if st.ref == nil {
		st.ref, st.results = rows, results
		d := digest(rows)
		rep.note("results_digest %s %s", rep.workload, d)
		if f := rep.chk.checkPin(0, d, len(rows)); f > 0 {
			failed, why = failed+f, "results digest differs from the pin"
		}
		for i, w := range st.warm {
			if !w.equal(rows[i]) {
				failed, why = failed+1, fmt.Sprintf("%s on a recycled machine differs from its freshly built warm-up", st.pts[i].name)
			}
		}
	} else {
		for i := range rows {
			if !rows[i].equal(st.ref[i]) {
				failed, why = failed+1, fmt.Sprintf("%s differs from the first pass", st.pts[i].name)
			}
		}
	}
	chk.end()
	rep.chk.account(len(rows), failed, why)
	st.cached(ctx, rep, ph, root)
}

// cached checks and times memo-served points. The first call fills the
// memo through engine.Run (a fresh simulation that must equal RunImage's
// row); later calls time cachedLookups memo hits.
func (st *kernelState) cached(ctx context.Context, rep *report, ph *kernelPhase, root spanRef) {
	failed, why := 0, ""
	if !st.primed {
		sp := root.child("engine.Run")
		for i, pt := range st.pts {
			res, err := st.e.Run(ctx, pt.job)
			if err != nil || !newRow(pt.name, res).equal(st.ref[i]) {
				failed, why = failed+1, fmt.Sprintf("%s through engine.Run differs from RunImage (err %v)", pt.name, err)
			}
		}
		sp.end()
		st.primed = true
		rep.chk.account(len(st.pts), failed, why)
		return
	}
	// Each round looks up every point once, timed, then checks the
	// results untimed.
	reps := max(1, cachedLookups/len(st.pts))
	got := make([]core.Result, len(st.pts))
	errs := 0
	sp := root.child("engine.Run")
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i, pt := range st.pts {
			res, err := st.e.Run(ctx, pt.job)
			if err != nil {
				errs++
			}
			got[i] = res
		}
		ph.lookupTime += time.Since(t)
		for i, res := range got {
			if !newRow(st.pts[i].name, res).equal(st.ref[i]) {
				failed, why = failed+1, fmt.Sprintf("memo-served %s differs from its simulation", st.pts[i].name)
			}
		}
	}
	sp.end()
	ph.lookups += reps * len(st.pts)
	if errs > 0 {
		why = fmt.Sprintf("%d memo lookups failed; %s", errs, why)
	}
	rep.chk.account(reps*len(st.pts), failed, why)
}

// report sets the phase's end-to-end metrics.
func (ph *kernelPhase) report(rep *report) {
	rep.set("sim_mips", ph.mips(), "MIPS")
	rep.set("fresh_points_per_s", float64(ph.points)/ph.runTime.Seconds(), "1/s")
	rep.set("cached_points_per_s", float64(ph.lookups)/ph.lookupTime.Seconds(), "1/s")
	rep.set("ttfr_s", median(ph.latency), "s")
	rep.note("points %d over %.1f s of RunImage (ttfr_s samples %d), memo-served points %d", ph.points, ph.runTime.Seconds(), len(ph.latency), ph.lookups)
}

// mips is simulated committed instructions per host second of RunImage.
func (ph *kernelPhase) mips() float64 {
	return float64(ph.committed) / ph.runTime.Seconds() / 1e6
}

// resultCounts reports the exact per-layer event counts summed over one
// set of results: the denominators for host time per simulated event.
func resultCounts(rep *report, results []core.Result) {
	var c struct {
		cycles, committed, demand, fullMiss, pfbHits, issued, busWait uint64
		lookups, missBlocks, mispredicts, stalls, wrongPath, ftqFull  uint64
	}
	for _, r := range results {
		c.cycles += uint64(r.Cycles)
		c.committed += r.Committed
		c.demand += r.DemandAccesses
		c.fullMiss += r.FullMisses
		c.pfbHits += r.PFBHits
		c.issued += r.PrefetchIssued
		c.busWait += r.DemandBusWait
		c.lookups += r.FTBLookups
		c.missBlocks += r.FTBMissBlocks
		c.mispredicts += r.TotalMispredicts
		c.stalls += r.FetchStallCycles
		c.wrongPath += r.WrongPathFetched
		c.ftqFull += r.BPUFTQFullStalls
	}
	for _, m := range []struct {
		name string
		v    uint64
	}{
		{"core.cycles", c.cycles}, {"core.committed", c.committed},
		{"cache.demand_accesses", c.demand}, {"cache.full_misses", c.fullMiss}, {"cache.pfb_hits", c.pfbHits},
		{"prefetch.issued", c.issued}, {"memsys.demand_bus_wait", c.busWait},
		{"btb.lookups", c.lookups}, {"btb.miss_blocks", c.missBlocks},
		{"bpred.mispredicts", c.mispredicts},
		{"frontend.stall_cycles", c.stalls}, {"frontend.wrong_path_fetched", c.wrongPath},
		{"ftq.full_stalls", c.ftqFull},
	} {
		rep.setLayer(m.name, float64(m.v), "count")
	}
}
