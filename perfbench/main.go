// Command perfbench is the repository benchmark: it runs one named workload
// against the simulator's public packages, checks every simulated result,
// and prints each metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload kernel-miss --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call into a layer, writes them to
// .bench_build/traces/, and prints the per-layer metrics instead. See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// options sizes one run. The command line sets workload, seed, seconds and
// trace; tests shrink the budgets.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// kernelInstrs is the committed-instruction budget of a kernel point;
	// sweepInstrs is the base budget of a sweep-service point.
	kernelInstrs, sweepInstrs uint64
	// replayInstrs is how many oracle records each program's component
	// replay walks.
	replayInstrs int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// pins overrides the pinned digests (nil = the committed pins).
	pins map[string][]string
	// workDir holds service state directories and traces.
	workDir string
}

func defaultOptions() options {
	return options{
		seconds:      20,
		kernelInstrs: 100_000,
		sweepInstrs:  20_000,
		replayInstrs: 200_000,
		setupReps:    5,
		workDir:      ".bench_build",
	}
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "workload: kernel-miss, kernel-hit or sweep-service")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed (0 = the calibrated programs, the pinned digests)")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", o.workDir, "directory for service state and traces")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// run executes one workload and returns its report.
func run(ctx context.Context, o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want kernel-miss, kernel-hit or sweep-service)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(filepath.Join(o.workDir, "state"), 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := newReport(o.workload)
	rep.traced = o.trace
	pins := o.pins
	if pins == nil {
		pins = pinnedDigests
	}
	budget := o.kernelInstrs
	if w.sweep {
		budget = o.sweepInstrs
	}
	// Kernel programs depend on the seed, so their pins hold at seed 0
	// only; sweep-service pins are per budget offset, which any seed that
	// reaches the offset runs.
	rep.chk = &checker{rep: rep, pins: pins[pinKey(o.workload, budget)], pinned: o.seed == 0 || w.sweep}
	var err error
	if w.sweep {
		err = runSweepService(ctx, o, w, rep, tr)
	} else {
		err = runKernel(ctx, o, w, rep, tr)
	}
	if err != nil {
		return nil, err
	}
	rep.set("max_rss_mb", maxRSSMB(), "MB")
	if tr != nil {
		if err := runProbes(ctx, o, w, rep, tr); err != nil {
			return nil, err
		}
		tr.layerMetrics(rep)
		path := filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.note("trace: %d spans written to %s", tr.len(), path)
	}
	return rep, nil
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, notes and operation accounting.
type report struct {
	workload string
	// e2e holds the end-to-end metrics, layer the per-layer ones; a traced
	// run's result object carries layer, an untraced run's e2e.
	e2e, layer metricSet
	traced     bool
	notes      []string
	attempted  int
	failed     int
	chk        *checker
}

// metricSet is an insertion-ordered set of named metrics.
type metricSet struct {
	m     map[string]metric
	order []string
}

func (s *metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no NaN; a metric with no samples reads 0
	}
	if s.m == nil {
		s.m = make(map[string]metric)
	}
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func newReport(workload string) *report {
	return &report{workload: workload}
}

// set records an end-to-end metric.
func (r *report) set(name string, v float64, unit string) { r.e2e.set(name, v, unit) }

// setLayer records a per-layer metric.
func (r *report) setLayer(name string, v float64, unit string) { r.layer.set(name, v, unit) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines, then the result object as the last
// line. Untraced runs print the end-to-end metrics, traced runs the
// per-layer ones; every metric also appears in the text lines.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, s := range []*metricSet{&r.e2e, &r.layer} {
		for _, name := range s.order {
			m := s.m[name]
			fmt.Fprintf(w, "%-40s %18.6f %s\n", name, m.Value, m.Unit)
		}
	}
	metrics := r.e2e.m
	if r.traced {
		metrics = r.layer.m
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics}
	b, _ := json.Marshal(out) // plain structs of numbers and strings cannot fail
	fmt.Fprintln(w, string(b))
}

// deadline returns when a loop that started now should stop.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
