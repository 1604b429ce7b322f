package main

import (
	"context"
	"fmt"
	"io/fs"
	"iter"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fdip/internal/core"
	"fdip/internal/dist"
	"fdip/internal/engine"
	"fdip/internal/oracle"
	"fdip/internal/program"
	"fdip/internal/svc"
)

// probeReps is how many times each path of the path probe runs; the
// reported overheads compare medians.
const probeReps = 3

// summaryReps is how many times the summary probe folds the rows.
const summaryReps = 20

// runProbes measures, in a traced run, the layers the workload loop does not
// time on its own: program generation and machine construction, the
// component replays, the engine / loopback / service path comparison, the
// journal, the summary reducer and service boot replay. Each probe runs over
// this workload's programs and machines.
func runProbes(ctx context.Context, o options, w workload, rep *report, tr *tracer) error {
	ims := make([]*program.Image, len(w.programs))
	seeds := make([]int64, len(w.programs))
	var gen []float64
	for i, name := range w.programs {
		params, seed := seededProgram(name, o.seed, 0)
		sp := tr.start("program.Generate", "probe/"+name)
		t := time.Now()
		im, err := program.Generate(params)
		gen = append(gen, time.Since(t).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("generate %s: %w", name, err)
		}
		ims[i], seeds[i] = im, seed
	}
	rep.setLayer("program.generate_s", median(gen), "s")

	var build []float64
	for _, m := range w.machines {
		cfg := withBudget(m.cfg, o.kernelInstrs)
		sp := tr.start("core.New", "probe/"+m.name)
		t := time.Now()
		_, err := core.New(cfg, ims[0], oracle.NewWalker(ims[0], seeds[0]))
		build = append(build, time.Since(t).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("build %s: %w", m.name, err)
		}
	}
	rep.setLayer("core.build_s", median(build), "s")

	if err := runReplays(ctx, o, w, ims, seeds, rep, tr); err != nil {
		return err
	}
	return pathProbe(ctx, o, w, rep, tr)
}

// pathProbe runs one plan — the workload's programs and machines at the
// sweep budget — from fresh state through engine.Stream, the loopback
// coordinator over the JSON wire, and the sweep service, and reports each
// layer's overhead per point as the difference of median wall times. Rows
// of the loopback and service paths are checked against engine.Stream's.
func pathProbe(ctx context.Context, o options, w workload, rep *report, tr *tracer) error {
	req := sweepRequest(w, o.sweepInstrs, "probe")
	plan := sweepPlan(req)
	n := plan.Points()
	var tEngine, tLoop, tSvc []float64
	var ref []engine.RunOutcome
	var want []row
	var stats engine.Stats
	for r := 0; r < probeReps; r++ {
		e := engine.New(engine.WithWorkers(workerSims))
		outs, d, err := collect(ctx, e.Stream, plan, tr, "engine.Stream", fmt.Sprintf("probe%d", r))
		if err != nil {
			return err
		}
		tEngine = append(tEngine, d.Seconds())
		if ref == nil {
			ref, stats = outs, e.Stats()
			want = make([]row, n)
			for _, out := range outs {
				want[out.Index] = newRow(out.Job.Name, out.Result)
			}
		}
	}
	rep.setLayer("engine.machines_built", float64(stats.MachinesBuilt), "count")
	rep.setLayer("engine.machines_reused", float64(stats.MachinesReused), "count")

	for r := 0; r < probeReps; r++ {
		c := dist.New(dist.Options{Dialer: dist.Loopback{Workers: 1, Wire: true}, Shards: workerSims})
		outs, d, err := collect(ctx, c.Stream, plan, tr, "dist.Coordinator.Stream", fmt.Sprintf("probe%d", r))
		if err != nil {
			return err
		}
		tLoop = append(tLoop, d.Seconds())
		failed, why := compareOutcomes(want, outs, false)
		rep.chk.account(n, failed, "loopback: "+why)
	}

	// The service probe keeps its last state directory, which holds one
	// fresh and one cached sweep, for boot replay.
	var fresh []engine.RunOutcome
	served := 0
	dir := ""
	for r := 0; r < probeReps; r++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		var err error
		if dir, err = os.MkdirTemp(filepath.Join(o.workDir, "state"), "probe-"); err != nil {
			return err
		}
		s, err := startService(ctx, dir, tr, fmt.Sprintf("probe%d", r))
		if err != nil {
			return err
		}
		run := s.run(ctx, req, tr, fmt.Sprintf("probe%d/fresh", r))
		cached := s.run(ctx, req, tr, fmt.Sprintf("probe%d/cached", r))
		if err := s.close(); err != nil {
			return err
		}
		for i, x := range []sweepRun{run, cached} {
			failed, why := compareOutcomes(want, x.outs, i == 1)
			if x.err != nil {
				failed, why = max(failed, 1), fmt.Sprintf("service stream: %v", x.err)
			}
			rep.chk.account(n, failed, "service: "+why)
		}
		tSvc = append(tSvc, run.total.Seconds())
		fresh, served = run.outs, cached.cached
	}
	perPoint := func(a, b []float64) float64 { return (median(a) - median(b)) / float64(n) * 1e3 }
	rep.setLayer("dist.overhead_ms_per_point", perPoint(tLoop, tEngine), "ms")
	rep.setLayer("svc.overhead_ms_per_point", perPoint(tSvc, tLoop), "ms")

	var overhead time.Duration
	for _, out := range fresh {
		if out.CyclesPerSec > 0 {
			overhead += out.Elapsed - time.Duration(float64(out.Result.Cycles)/out.CyclesPerSec*1e9)
		}
	}
	rep.setLayer("engine.overhead_ms_per_point", overhead.Seconds()*1e3/float64(max(1, len(fresh))), "ms")
	rep.setLayer("svc.submit_ms", msMedian(tr.durations("svc.Submit")), "ms")
	if _, ok := rep.layer.m["svc.cached_points"]; !ok {
		rep.setLayer("svc.cached_points", float64(served), "count")
	}

	if err := journalProbe(o, ref, rep, tr); err != nil {
		return err
	}
	summaryProbe(ref, rep, tr)

	defer os.RemoveAll(dir)
	return bootReplay(dir, rep, tr)
}

// collect drains one stream of plan, timing it as a span named name.
func collect(ctx context.Context, stream func(context.Context, *engine.Plan) iter.Seq2[engine.RunOutcome, error],
	plan *engine.Plan, tr *tracer, name, group string) ([]engine.RunOutcome, time.Duration, error) {
	var outs []engine.RunOutcome
	sp := tr.start(name, group)
	t := time.Now()
	for out, err := range stream(ctx, plan) {
		if err != nil {
			sp.end()
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		outs = append(outs, out)
	}
	d := time.Since(t)
	sp.end()
	return outs, d, nil
}

// journalProbe replays the reference rows, range by range, into a scratch
// checkpoint journal with its per-commit fsync.
func journalProbe(o options, outs []engine.RunOutcome, rep *report, tr *tracer) error {
	const chunk = 8
	sorted := append([]engine.RunOutcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	path := filepath.Join(o.workDir, "state", "probe.journal")
	j, _, err := dist.OpenJournal(path, 1, len(sorted), chunk)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var commits []float64
	for start := 0; start < len(sorted); start += chunk {
		end := min(start+chunk, len(sorted))
		sp := tr.start("dist.Journal.Commit", fmt.Sprintf("journal/%d", start))
		t := time.Now()
		err := j.Commit(start, sorted[start:end])
		commits = append(commits, time.Since(t).Seconds()*1e3)
		sp.end()
		if err != nil {
			j.Close()
			return err
		}
	}
	rep.setLayer("dist.journal_commit_ms", median(commits), "ms")
	return j.Close()
}

// summaryProbe folds the rows into the sweep summary and renders it, as the
// fdipd client does, summaryReps times.
func summaryProbe(outs []engine.RunOutcome, rep *report, tr *tracer) {
	sp := tr.start("stats.Summary", "summary")
	t := time.Now()
	for r := 0; r < summaryReps; r++ {
		s := dist.NewSummary("IPC", 3, dist.IPC)
		for _, out := range outs {
			s.Observe(out)
		}
		_ = s.String()
	}
	d := time.Since(t)
	sp.end()
	rep.setLayer("stats.summary_ns_per_point", float64(d.Nanoseconds())/float64(summaryReps*len(outs)), "ns")
}

// bootReplay times svc.New over a drained state directory — the restart
// path that replays every finished sweep's journal — and reports the
// directory's size.
func bootReplay(dir string, rep *report, tr *tracer) error {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	sp := tr.start("svc.New", "boot-replay")
	t := time.Now()
	s, err := svc.New(svc.Options{StateDir: dir})
	d := time.Since(t)
	sp.end()
	if err != nil {
		return fmt.Errorf("boot replay: %w", err)
	}
	if err := s.Shutdown(); err != nil {
		return err
	}
	rep.setLayer("svc.boot_replay_s", d.Seconds(), "s")
	rep.setLayer("svc.state_bytes", float64(size), "bytes")
	return nil
}

// msMedian is the median of ds in milliseconds.
func msMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds() * 1e3
	}
	return median(xs)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
