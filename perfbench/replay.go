package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fdip/internal/bpred"
	"fdip/internal/btb"
	"fdip/internal/cache"
	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/ftq"
	"fdip/internal/isa"
	"fdip/internal/memsys"
	"fdip/internal/oracle"
	"fdip/internal/program"
)

// The component replay drives single layers with a program's own
// correct-path stream instead of synthetic addresses: the oracle walker
// produces the stream once, and each component then replays the part of it
// that component sees in the simulator — fetch lines for the L1-I, its
// misses for the memory system, fetch blocks for the FTB and FTQ,
// conditional branches for the direction predictor. Every replay starts
// from a freshly built component, so its hit and miss counts repeat
// exactly. The replays' timing is the program's own: one simulation of the
// program on the replayed machine sets how far apart its L1-I misses reach
// the memory system and how full the FTQ runs.

// fetchBlock is one correct-path fetch block: it ends at a control transfer
// or after the FTB's maximum block length.
type fetchBlock struct {
	start  uint64
	n      int
	kind   isa.Kind
	target uint64
	cti    bool
}

// condBranch is one executed conditional branch.
type condBranch struct {
	pc    uint64
	taken bool
}

// capture is one program's stage inputs.
type capture struct {
	instrs int
	lines  []uint64
	blocks []fetchBlock
	conds  []condBranch
}

// replayCounts are the exact outcome counts of one replay.
type replayCounts struct {
	instrs, lines, cacheHits, cacheMisses, l2Hits, l2Misses uint64
	blocks, btbHits, btbMisses, conds, mispredicts          uint64
}

// replayTiming is what one program's simulation on the replayed machine
// sets for its replays.
type replayTiming struct {
	// missGap is simulated cycles per L1-I miss: a memsys request arrives
	// every missGap cycles.
	missGap int64
	// ftqOcc is the FTQ's mean occupancy in blocks, rounded down: the FTQ
	// replay pops the head whenever it holds more.
	ftqOcc int
}

// timingOf derives a program's replay timing from its simulation.
func timingOf(res core.Result, cfg core.Config) replayTiming {
	// With no prefetcher every L1-I miss is a full miss.
	gap := res.Cycles / int64(max(1, res.FullMisses))
	return replayTiming{
		missGap: max(1, gap),
		ftqOcc:  min(max(0, int(res.FTQOccMean)), cfg.FTQEntries-1),
	}
}

// replayTimes are one replay's host time per operation, by layer.
type replayTimes struct {
	oracle, cache, memsys, btb, bpred, ftq time.Duration
}

// walk runs the oracle for n records and captures the stage inputs.
func walk(im *program.Image, seed int64, n int, cfg core.Config, tr *tracer, group string) (capture, time.Duration) {
	w := oracle.NewWalker(im, seed)
	recs := make([]oracle.Record, n)
	sp := tr.start("oracle.NextInto", group)
	t := time.Now()
	for i := range recs {
		w.NextInto(&recs[i])
	}
	d := time.Since(t)
	sp.end()

	c := capture{instrs: n}
	lineMask := ^uint64(cfg.LineBytes - 1)
	maxBlock := cfg.FTB.MaxBlockInstrs
	last := uint64(math.MaxUint64)
	cur := fetchBlock{}
	for i, r := range recs {
		if l := r.PC & lineMask; l != last {
			c.lines = append(c.lines, l)
			last = l
		}
		if cur.n == 0 {
			cur.start = r.PC
		}
		cur.n++
		k := r.Instr.Kind
		if k.IsConditional() {
			c.conds = append(c.conds, condBranch{pc: r.PC, taken: r.Taken})
		}
		if k.IsCTI() {
			cur.cti, cur.kind, cur.target = true, k, r.Instr.Target
			if k.IsIndirect() {
				cur.target = r.NextPC
			}
		}
		if cur.cti || cur.n == maxBlock || i == len(recs)-1 {
			c.blocks = append(c.blocks, cur)
			cur = fetchBlock{}
		}
	}
	return c, d
}

// replay drives every component over one capture and returns its counts
// and total host time per layer.
func replay(c capture, cfg core.Config, tm replayTiming, tr *tracer, group string) (replayCounts, replayTimes) {
	n := replayCounts{instrs: uint64(c.instrs), lines: uint64(len(c.lines)), blocks: uint64(len(c.blocks)), conds: uint64(len(c.conds))}
	var t replayTimes

	// L1-I: demand access per fetch line, fill on a miss.
	l1 := cache.New(cache.Config{SizeBytes: cfg.L1ISizeBytes, Ways: cfg.L1IWays, LineBytes: cfg.LineBytes, Repl: cache.LRU, TagPorts: cfg.L1ITagPorts})
	misses := make([]uint64, 0, len(c.lines)/8)
	sp := tr.start("cache.Access", group)
	start := time.Now()
	for _, l := range c.lines {
		if !l1.Access(l) {
			l1.Fill(l, false)
			misses = append(misses, l)
		}
	}
	t.cache = time.Since(start)
	sp.end()
	n.cacheHits, n.cacheMisses = l1.Hits, l1.Misses

	// Memory system: each L1-I miss requested the program's simulated
	// miss gap after the previous one, draining whatever completed.
	mc := cfg.Mem
	mc.LineBytes = cfg.LineBytes
	h := memsys.New(mc)
	drop := func(*memsys.Transfer) {}
	sp = tr.start("memsys.Request", group)
	start = time.Now()
	var now int64
	for _, l := range misses {
		now += tm.missGap
		h.DrainCompleted(now, drop)
		h.Request(l, false, now)
	}
	h.DrainCompleted(math.MaxInt64, drop)
	t.memsys = time.Since(start)
	sp.end()
	n.l2Hits, n.l2Misses = h.L2DemandHits, h.L2DemandMisses

	// FTB: predict every block, train every block ending in a transfer
	// (as commit does).
	ftb := btb.New(cfg.FTB)
	sp = tr.start("btb.PredictBlock", group)
	start = time.Now()
	for _, b := range c.blocks {
		if _, ok := ftb.PredictBlock(b.start); ok {
			n.btbHits++
		} else {
			n.btbMisses++
		}
		if b.cti {
			ftb.TrainBlock(b.start, b.n, b.kind, b.target)
		}
	}
	t.btb = time.Since(start)
	sp.end()

	// Direction predictor: predict, repair on a mispredict, commit.
	dir := bpred.NewHybrid(cfg.PredictorSize, cfg.PredictorHistBits)
	sp = tr.start("bpred.Predict", group)
	start = time.Now()
	for _, b := range c.conds {
		hist := dir.History()
		if dir.Predict(b.pc) != b.taken {
			n.mispredicts++
			dir.Repair(hist, b.taken)
		}
		dir.Commit(b.pc, hist, b.taken)
	}
	t.bpred = time.Since(start)
	sp.end()

	// FTQ: push every block in place, popping the head once the queue
	// holds more than the program's simulated mean occupancy (fetch
	// consuming behind the BPU).
	q := ftq.New(cfg.FTQEntries, cfg.LineBytes)
	sp = tr.start("ftq.PushSlot", group)
	start = time.Now()
	for i, b := range c.blocks {
		if s := q.PushSlot(); s != nil {
			s.Seq, s.Start, s.NumInstrs = uint64(i), b.start, b.n
			s.EndsInCTI, s.CTIKind = b.cti, b.kind
			q.CommitPush()
		}
		if q.Len() > tm.ftqOcc {
			q.PopHead()
		}
	}
	t.ftq = time.Since(start)
	sp.end()
	return n, t
}

// replayReps is how many times each program's capture is replayed; the
// reported time per operation is the median over repetitions.
const replayReps = 5

// runReplays captures and replays every program on the paper machine with
// no prefetcher, and reports the per-layer host times and the exact replay
// counts.
func runReplays(ctx context.Context, o options, w workload, ims []*program.Image, seeds []int64, rep *report, tr *tracer) error {
	cfg := paperMachine(core.PrefetchNone)
	var total replayCounts
	var oracleTime time.Duration
	caps := make([]capture, len(ims))
	timing := make([]replayTiming, len(ims))
	e := engine.New(engine.WithWorkers(1))
	for i, im := range ims {
		group := "replay/" + w.programs[i]
		sp := tr.start("engine.RunImage", group)
		res, err := e.RunImage(ctx, withBudget(cfg, uint64(o.replayInstrs)), im, seeds[i])
		sp.end()
		if err != nil {
			return fmt.Errorf("replay timing of %s: %w", w.programs[i], err)
		}
		timing[i] = timingOf(res, cfg)
		rep.note("replay timing %s: a miss every %d cycles, FTQ held at %d blocks", w.programs[i], timing[i].missGap, timing[i].ftqOcc)
		var d time.Duration
		caps[i], d = walk(im, seeds[i], o.replayInstrs, cfg, tr, group)
		oracleTime += d
	}
	per := make([][]float64, 5)
	for r := 0; r < replayReps; r++ {
		var sum replayTimes
		var cnt replayCounts
		for i, c := range caps {
			n, t := replay(c, cfg, timing[i], tr, "replay/"+w.programs[i])
			sum.cache += t.cache
			sum.memsys += t.memsys
			sum.btb += t.btb
			sum.bpred += t.bpred
			sum.ftq += t.ftq
			cnt.add(n)
		}
		total = cnt
		per[0] = append(per[0], nsPer(sum.cache, cnt.lines))
		per[1] = append(per[1], nsPer(sum.memsys, cnt.cacheMisses))
		per[2] = append(per[2], nsPer(sum.btb, cnt.blocks))
		per[3] = append(per[3], nsPer(sum.bpred, cnt.conds))
		per[4] = append(per[4], nsPer(sum.ftq, cnt.blocks))
	}
	rep.setLayer("oracle.ns_per_instr", nsPer(oracleTime, total.instrs), "ns")
	rep.setLayer("cache.access_ns", median(per[0]), "ns")
	rep.setLayer("memsys.request_ns", median(per[1]), "ns")
	rep.setLayer("btb.predict_ns", median(per[2]), "ns")
	rep.setLayer("bpred.predict_ns", median(per[3]), "ns")
	rep.setLayer("ftq.push_pop_ns", median(per[4]), "ns")
	for _, m := range []struct {
		name string
		v    uint64
	}{
		{"replay.instrs", total.instrs}, {"replay.fetch_lines", total.lines},
		{"replay.cache_hits", total.cacheHits}, {"replay.cache_misses", total.cacheMisses},
		{"replay.l2_hits", total.l2Hits}, {"replay.l2_misses", total.l2Misses},
		{"replay.blocks", total.blocks}, {"replay.btb_hits", total.btbHits}, {"replay.btb_misses", total.btbMisses},
		{"replay.cond_branches", total.conds}, {"replay.bpred_mispredicts", total.mispredicts},
	} {
		rep.setLayer(m.name, float64(m.v), "count")
	}
	return nil
}

func (a *replayCounts) add(b replayCounts) {
	a.instrs += b.instrs
	a.lines += b.lines
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.l2Hits += b.l2Hits
	a.l2Misses += b.l2Misses
	a.blocks += b.blocks
	a.btbHits += b.btbHits
	a.btbMisses += b.btbMisses
	a.conds += b.conds
	a.mispredicts += b.mispredicts
}

// nsPer is d in nanoseconds per operation.
func nsPer(d time.Duration, ops uint64) float64 {
	return float64(d.Nanoseconds()) / float64(ops)
}
