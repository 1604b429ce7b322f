package main

import (
	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/prefetch"
	"fdip/internal/program"
	"fdip/internal/svc"
	"fdip/internal/workloads"
)

// workload is one benchmark workload: which simulated programs run on which
// machines, and through which path.
type workload struct {
	name     string
	programs []string
	machines []machine
	// sweep selects the sweep-service path (fdipd -serve in process)
	// instead of the kernel path (engine.RunImage, one point at a time).
	sweep bool
}

// machine is one named simulated machine configuration.
type machine struct {
	name string
	cfg  core.Config
}

func workloadByName(name string) (workload, bool) {
	switch name {
	case "kernel-miss":
		return workload{
			name:     name,
			programs: []string{"gcc", "vortex", "perl", "tex", "groff"},
			machines: []machine{
				{"none-16k", paperMachine(core.PrefetchNone)},
				{"fdp-cpf-16k", fdpCPF(paperMachine(core.PrefetchFDP))},
				{"none-deep", deepMachine(core.PrefetchNone)},
				{"fdp-cpf-deep", fdpCPF(deepMachine(core.PrefetchFDP))},
			},
		}, true
	case "kernel-hit":
		return workload{
			name:     name,
			programs: []string{"go", "m88ksim", "deltablue"},
			machines: []machine{
				{"none-16k", paperMachine(core.PrefetchNone)},
				{"fdp-cpf-16k", fdpCPF(paperMachine(core.PrefetchFDP))},
			},
		}, true
	case "sweep-service":
		return workload{
			name:     name,
			programs: workloads.Names(),
			machines: sweepMachines(),
			sweep:    true,
		}, true
	}
	return workload{}, false
}

// paperMachine is the paper's baseline: 16 KB L1-I, 32-entry FTQ, 70-cycle
// memory.
func paperMachine(kind core.PrefetcherKind) core.Config {
	c := core.DefaultConfig()
	c.Prefetch.Kind = kind
	return c
}

// deepMachine is the deep-run-ahead machine: 8 KB L1-I over 300-cycle
// memory with a 64-entry FTQ, where most cycles are fetch stalls the BPU
// runs ahead through.
func deepMachine(kind core.PrefetcherKind) core.Config {
	c := paperMachine(kind)
	c.L1ISizeBytes = 8 * 1024
	c.FTQEntries = 64
	c.Mem.MemLatency = 300
	return c
}

// fdpCPF turns on conservative enqueue-side cache-probe filtering.
func fdpCPF(c core.Config) core.Config {
	c.Prefetch.FDP.CPF = prefetch.CPFConservative
	return c
}

// sweepMachines are the twelve machines of a sweep-service sweep: every
// prefetch scheme on the paper machine, the filtering variants, a perfect
// L1-I bound, and the deep-run-ahead pair.
func sweepMachines() []machine {
	fdpOpt := paperMachine(core.PrefetchFDP)
	fdpOpt.Prefetch.FDP.CPF = prefetch.CPFOptimistic
	fdpRemove := paperMachine(core.PrefetchFDP)
	fdpRemove.Prefetch.FDP.RemoveCPF = true
	perfect := paperMachine(core.PrefetchNone)
	perfect.PerfectL1I = true
	return []machine{
		{"none", paperMachine(core.PrefetchNone)},
		{"nextline", paperMachine(core.PrefetchNextLine)},
		{"streambuf", paperMachine(core.PrefetchStream)},
		{"fdp", paperMachine(core.PrefetchFDP)},
		{"fdp-cpf", fdpCPF(paperMachine(core.PrefetchFDP))},
		{"fdp-cpf-opt", fdpOpt},
		{"fdp-rcpf", fdpRemove},
		{"mana", paperMachine(core.PrefetchMANA)},
		{"shadow", paperMachine(core.PrefetchShadow)},
		{"perfect", perfect},
		{"none-deep", deepMachine(core.PrefetchNone)},
		{"fdp-cpf-deep", fdpCPF(deepMachine(core.PrefetchFDP))},
	}
}

// withBudget returns cfg running instrs committed instructions.
func withBudget(cfg core.Config, instrs uint64) core.Config {
	cfg.MaxInstrs = instrs
	cfg.MaxCycles = 0 // derived from MaxInstrs
	return cfg
}

// variants is how many seed variants of each program a kernel workload
// runs. Programs generated from different seeds differ in host cost by
// tens of percent, so a workload averages several of each to keep its
// figures close from one workload seed to the next.
const variants = 4

// seededProgram returns the generation parameters and oracle seed of
// variant v of a program under a workload seed. Variant 0 at seed 0 is the
// calibrated program; every other (seed, variant) moves both seeds while
// keeping every calibrated shape parameter, so the program keeps its
// footprint and branch mix but is a different program.
func seededProgram(name string, seed int64, v int) (program.Params, int64) {
	w, ok := workloads.ByName(name)
	if !ok {
		panic("perfbench: unknown program " + name) // the workload tables name only registry programs
	}
	k := seed*variants + int64(v)
	p := w.Params
	p.Seed += k * 1_000_003
	return p, w.Seed + k*1_000_033
}

// sweepRequest is one sweep-service submission: every program of w on every
// machine of w, with the budget baked into each configuration (as fdipd's
// demo plan does), so the engine.Stream reference runs literally the same
// jobs.
func sweepRequest(w workload, instrs uint64, label string) svc.SubmitRequest {
	req := svc.SubmitRequest{Label: label, Workloads: w.programs}
	for _, m := range w.machines {
		req.Configs = append(req.Configs, svc.ConfigPoint{Name: m.name, Config: withBudget(m.cfg, instrs)})
	}
	return req
}

// sweepPlan is the engine Plan a sweepRequest describes — the same
// construction the service performs on submission.
func sweepPlan(req svc.SubmitRequest) *engine.Plan {
	pts := make([]engine.NamedConfig, len(req.Configs))
	for i, c := range req.Configs {
		pts[i] = engine.Named(c.Name, c.Config)
	}
	return engine.NewPlan(core.DefaultConfig()).OverNames(req.Workloads...).Axes(engine.Configs(pts...))
}
