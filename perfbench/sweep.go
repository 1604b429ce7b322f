package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/engine"
	"fdip/internal/svc"
)

// sweepsPerEpoch is how many distinct fresh sweeps one service instance
// runs before the run starts a new one (fresh state directory, worker,
// cache). Sweep k of an epoch runs at the base budget plus a budget offset
// derived from the seed and k, so within an epoch no sweep shares a point
// with an earlier one, and the service's memory stays bounded however long
// the run is.
const sweepsPerEpoch = 4

// budgetOffsets bounds the budget offset, so every seed's sweeps cost the
// same to within a percent. Offsets, and so sweeps, repeat with period
// budgetOffsets/sweepsPerEpoch (64) in the seed.
const budgetOffsets = 256

// workerSims is the worker's simulation concurrency, sized for a two-core
// machine.
const workerSims = 2

// service is one in-process fdipd -serve stack: a svc.Server on a loopback
// HTTP listener with one self-registered dist.Worker HTTP worker.
type service struct {
	srv    *svc.Server
	api    *http.Server
	worker *http.Server
	cl     *svc.Client
	stopHB context.CancelFunc
	wg     sync.WaitGroup
}

// startService boots a service over dir and registers its worker.
func startService(ctx context.Context, dir string, tr *tracer, group string) (*service, error) {
	sp := tr.start("svc.New", group)
	srv, err := svc.New(svc.Options{StateDir: dir, Shards: workerSims, WorkerTTL: time.Minute})
	sp.end()
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv}
	apiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	wkLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		apiLn.Close()
		srv.Shutdown()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/run", dist.NewWorker(workerSims).Handler())
	s.api = &http.Server{Handler: srv.Handler()}
	s.worker = &http.Server{Handler: mux}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); s.api.Serve(apiLn) }()
	go func() { defer s.wg.Done(); s.worker.Serve(wkLn) }()
	s.cl = &svc.Client{Base: "http://" + apiLn.Addr().String()}

	hbCtx, stop := context.WithCancel(ctx)
	s.stopHB = stop
	sp = tr.start("svc.Heartbeat", group)
	err = s.cl.Heartbeat(hbCtx, "w1", "http://"+wkLn.Addr().String(), time.Minute)
	sp.end()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("register worker: %w", err)
	}
	return s, nil
}

// close drains the service and stops both listeners.
func (s *service) close() error {
	s.stopHB()
	err := s.srv.Shutdown()
	s.api.Close()
	s.worker.Close()
	s.wg.Wait()
	return err
}

// sweepRun is one submission streamed to its terminal frame.
type sweepRun struct {
	outs                []engine.RunOutcome
	submit, ttfr, total time.Duration
	cached              int // JobStatus.Cached after the stream ended
	err                 error
}

// run submits req and streams every row, timing submit, first row and last
// row from the moment of submission.
func (s *service) run(ctx context.Context, req svc.SubmitRequest, tr *tracer, group string) sweepRun {
	var r sweepRun
	root := tr.start("bench.sweep", group)
	defer root.end()
	t0 := time.Now()
	sp := root.child("svc.Submit")
	st, err := s.cl.Submit(ctx, req)
	sp.end()
	if err != nil {
		r.err = err
		return r
	}
	sp = root.child("svc.Stream")
	r.err = s.cl.Stream(ctx, st.ID, 0, func(f svc.StreamFrame) error {
		if f.Outcome != nil {
			if len(r.outs) == 0 {
				r.ttfr = time.Since(t0)
			}
			r.outs = append(r.outs, *f.Outcome)
		}
		return nil
	})
	r.total = time.Since(t0)
	sp.end()
	if r.err == nil {
		var js svc.JobStatus
		js, r.err = s.cl.Job(ctx, st.ID)
		r.cached = js.Cached
	}
	return r
}

// sweepState is one sweep-service run: the engine.Stream reference of each
// budget (computed once per run), the untraced and traced phases, and how
// many timed sweeps have run.
type sweepState struct {
	o       options
	w       workload
	tr      *tracer
	until   time.Time
	refRows map[uint64][]row
	refOuts map[uint64][]engine.RunOutcome

	plain, traced *sweepPhase
	sweeps        int
}

// sweepPhase holds one phase's samples.
type sweepPhase struct {
	setup, mips, pps, ttfr, cachedPPS []float64
	// simTime, committed and cycles sum the worker-side simulation time
	// and counts of every fresh row (core.ns_per_instr on this workload).
	simTime           time.Duration
	committed, cycles uint64
	cachedPoints      int // JobStatus.Cached of the phase's first resubmission
}

// offset is the budget offset of distinct sweep k.
func (ss *sweepState) offset(k int) uint64 {
	off := (ss.o.seed*sweepsPerEpoch + int64(k)) % budgetOffsets
	if off < 0 {
		off += budgetOffsets
	}
	return uint64(off)
}

// warmBudget is the per-point budget of the warm-up sweep that ends each
// service's set-up: below every timed sweep's budget, so it shares no point
// with them.
func (ss *sweepState) warmBudget() uint64 { return max(1, ss.o.sweepInstrs/10) }

// reference returns the engine.Stream rows of the sweep at budget, computing
// them on first use (untimed) on an engine of their own, dropped afterwards
// so its machines do not stay resident. A timed sweep's digest is checked
// against the pin of its budget offset, whatever seed produced it.
func (ss *sweepState) reference(ctx context.Context, rep *report, budget uint64, tr *tracer) ([]row, error) {
	if rows, ok := ss.refRows[budget]; ok {
		return rows, nil
	}
	p := sweepPlan(sweepRequest(ss.w, budget, "reference"))
	rows := make([]row, p.Points())
	outs := make([]engine.RunOutcome, p.Points())
	sp := tr.start("engine.Stream", fmt.Sprintf("reference@%d", budget))
	for out, err := range engine.New(engine.WithWorkers(workerSims)).Stream(ctx, p) {
		if err != nil {
			sp.end()
			return nil, fmt.Errorf("reference sweep at %d: %w", budget, err)
		}
		if out.Err != nil {
			sp.end()
			return nil, fmt.Errorf("reference sweep at %d: %s: %w", budget, out.Job.Name, out.Err)
		}
		rows[out.Index] = newRow(out.Job.Name, out.Result)
		outs[out.Index] = out
	}
	sp.end()
	d := digest(rows)
	rep.note("results_digest %s@%d %s", rep.workload, budget, d)
	if budget >= ss.o.sweepInstrs {
		k := int(budget - ss.o.sweepInstrs)
		if f := rep.chk.checkPin(k, d, len(rows)); f > 0 {
			rep.chk.account(len(rows), f, fmt.Sprintf("sweep at offset %d: digest differs from the pin", k))
		}
	}
	ss.refRows[budget], ss.refOuts[budget] = rows, outs
	return rows, nil
}

// runSweepService runs the sweep-service workload: per epoch, boot a
// service, register its worker and warm it (set-up), then submit sweeps one
// after another, each fresh one followed by an identical resubmission the
// cache serves, until the deadline. Every epoch runs at least one fresh and
// one cached sweep. Without a tracer every sweep is untraced; with one,
// sweeps alternate untraced and traced (at least one of each).
func runSweepService(ctx context.Context, o options, w workload, rep *report, tr *tracer) error {
	ss := &sweepState{
		o: o, w: w, tr: tr, until: deadline(o.seconds),
		refRows: make(map[uint64][]row),
		refOuts: make(map[uint64][]engine.RunOutcome),
		plain:   &sweepPhase{},
		traced:  &sweepPhase{},
	}
	for epoch := 0; ss.more(); epoch++ {
		if err := ss.epoch(ctx, rep, epoch); err != nil {
			return err
		}
	}
	plain, traced := ss.plain, ss.traced
	plain.report(rep)
	if tr == nil {
		return nil
	}
	// Traced and untraced sweeps alternate, so a drift in the host's speed
	// weighs on both alike; the overhead is the median over consecutive
	// (untraced, traced) pairs.
	var over []float64
	for i := range min(len(plain.mips), len(traced.mips)) {
		over = append(over, 100*(plain.mips[i]/traced.mips[i]-1))
	}
	rep.setLayer("trace.overhead_pct", median(over), "%")
	rep.setLayer("core.ns_per_instr", float64(traced.simTime)/float64(traced.committed), "ns")
	rep.setLayer("core.ns_per_cycle", float64(traced.simTime)/float64(traced.cycles), "ns")
	rep.setLayer("svc.cached_points", float64(traced.cachedPoints), "count")
	first := ss.refOuts[o.sweepInstrs+ss.offset(0)]
	results := make([]core.Result, 0, len(first))
	for _, out := range first {
		results = append(results, out.Result)
	}
	resultCounts(rep, results)
	return nil
}

// more reports whether another timed sweep should start.
func (ss *sweepState) more() bool {
	least := 1
	if ss.tr != nil {
		least = 2
	}
	return ss.sweeps < least || time.Now().Before(ss.until)
}

// epoch boots one service over a fresh state directory, warms it, runs its
// sweeps, and removes the directory.
func (ss *sweepState) epoch(ctx context.Context, rep *report, epoch int) error {
	dir, err := os.MkdirTemp(filepath.Join(ss.o.workDir, "state"), "svc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warmRows, err := ss.reference(ctx, rep, ss.warmBudget(), nil) // untimed
	if err != nil {
		return err
	}
	group := fmt.Sprintf("epoch%d", epoch)
	t0 := time.Now()
	s, err := startService(ctx, dir, ss.tr, group)
	if err != nil {
		return err
	}
	ss.warm(ctx, rep, s, warmRows, group)
	ss.plain.setup = append(ss.plain.setup, time.Since(t0).Seconds())
	for k := 0; k < sweepsPerEpoch && (k == 0 || ss.more()); k++ {
		ph, tr := ss.plain, (*tracer)(nil)
		if ss.tr != nil && ss.sweeps%2 == 1 {
			ph, tr = ss.traced, ss.tr
		}
		if err := ss.sweep(ctx, rep, ph, s, k, tr, fmt.Sprintf("%s/sweep%d", group, k)); err != nil {
			s.close()
			return err
		}
		ss.sweeps++
	}
	return s.close()
}

// warm runs one small sweep through a freshly booted service, so the
// worker's image cache holds every program before the first timed sweep and
// every fresh sweep measures the same path; program generation counts in
// setup_s. Its rows are checked against want like any other.
func (ss *sweepState) warm(ctx context.Context, rep *report, s *service, want []row, group string) {
	r := s.run(ctx, sweepRequest(ss.w, ss.warmBudget(), group+"/warm-up"), ss.tr, group+"/warm-up")
	failed, why := compareOutcomes(want, r.outs, false)
	if r.err != nil {
		why = fmt.Sprintf("warm-up stream: %v; %s", r.err, why)
		failed = max(failed, 1)
	}
	rep.chk.account(len(want), failed, why)
}

// sweep runs distinct sweep k fresh, then resubmits it, checking both
// against the engine.Stream reference.
func (ss *sweepState) sweep(ctx context.Context, rep *report, ph *sweepPhase, s *service, k int, tr *tracer, group string) error {
	budget := ss.o.sweepInstrs + ss.offset(k)
	want, err := ss.reference(ctx, rep, budget, tr)
	if err != nil {
		return err
	}
	req := sweepRequest(ss.w, budget, group)
	fresh := s.run(ctx, req, tr, group+"/fresh")
	failed, why := compareOutcomes(want, fresh.outs, false)
	if fresh.err != nil {
		why = fmt.Sprintf("stream: %v; %s", fresh.err, why)
		failed = max(failed, 1)
	}
	rep.chk.account(len(want), failed, why)
	if fresh.err == nil {
		var committed uint64
		for _, out := range fresh.outs {
			committed += out.Result.Committed
			if out.CyclesPerSec > 0 {
				ph.simTime += time.Duration(float64(out.Result.Cycles) / out.CyclesPerSec * 1e9)
				ph.committed += out.Result.Committed
				ph.cycles += uint64(out.Result.Cycles)
			}
		}
		ph.mips = append(ph.mips, float64(committed)/fresh.total.Seconds()/1e6)
		ph.pps = append(ph.pps, float64(len(fresh.outs))/fresh.total.Seconds())
		ph.ttfr = append(ph.ttfr, fresh.ttfr.Seconds())
	}

	cached := s.run(ctx, req, tr, group+"/cached")
	failed, why = compareOutcomes(want, cached.outs, true)
	switch {
	case cached.err != nil:
		why = fmt.Sprintf("stream: %v; %s", cached.err, why)
		failed = max(failed, 1)
	case cached.cached != len(want):
		why = fmt.Sprintf("resubmission served %d of %d points from the cache; %s", cached.cached, len(want), why)
		failed = max(failed, len(want)-cached.cached)
	}
	rep.chk.account(len(want), failed, why)
	if cached.err == nil {
		ph.cachedPPS = append(ph.cachedPPS, float64(len(cached.outs))/cached.total.Seconds())
		if ph.cachedPoints == 0 {
			ph.cachedPoints = cached.cached
		}
	}
	return nil
}

// report sets the phase's end-to-end metrics.
func (ph *sweepPhase) report(rep *report) {
	rep.set("sim_mips", median(ph.mips), "MIPS")
	rep.set("fresh_points_per_s", median(ph.pps), "1/s")
	rep.set("cached_points_per_s", median(ph.cachedPPS), "1/s")
	rep.set("ttfr_s", median(ph.ttfr), "s")
	rep.set("setup_s", median(ph.setup), "s")
	rep.note("fresh sweeps %d (ttfr_s samples %d), cached sweeps %d, service set-ups %d",
		len(ph.pps), len(ph.ttfr), len(ph.cachedPPS), len(ph.setup))
}
