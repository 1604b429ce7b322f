package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyOptions sizes a run to a fraction of a second of simulation.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	o := defaultOptions()
	o.workload, o.trace = workload, trace
	o.seconds = 0.2
	o.kernelInstrs, o.sweepInstrs, o.replayInstrs = 4_000, 1_500, 4_000
	o.setupReps = 1
	o.workDir = t.TempDir()
	return o
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runTiny(t *testing.T, o options) (result, string) {
	t.Helper()
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json at a tiny
// size, untraced and traced, and checks that each named metric is printed
// with its unit and that every result checks out.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, out := runTiny(t, tinyOptions(t, w.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestWrongDigestFails pins a wrong digest and checks that the run reports
// failed operations instead of a correct result. Sweep-service seed 64 runs
// the sweeps of seed 0, so it is checked against the same pins.
func TestWrongDigestFails(t *testing.T) {
	for _, c := range []struct {
		workload string
		seed     int64
	}{{"kernel-hit", 0}, {"sweep-service", 0}, {"sweep-service", 64}} {
		o := tinyOptions(t, c.workload, false)
		o.seed = c.seed
		budget := o.kernelInstrs
		if c.workload == "sweep-service" {
			budget = o.sweepInstrs
		}
		o.pins = map[string][]string{pinKey(c.workload, budget): {"0000000000000000"}}
		res, out := runTiny(t, o)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s seed %d: a wrong pinned digest went unnoticed (correct=%v failed=%d)\n%s", c.workload, c.seed, res.Correct, res.Failed, out)
		}
	}
}

// TestPinsMatchAtDefaultSeed checks that the committed pins are the digests
// the default seed produces, on the cheapest workload.
func TestPinsMatchAtDefaultSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs kernel-hit at full budget")
	}
	o := defaultOptions()
	o.workload, o.seconds, o.setupReps, o.workDir = "kernel-hit", 0.1, 1, t.TempDir()
	if len(pinnedDigests[pinKey(o.workload, o.kernelInstrs)]) == 0 {
		t.Fatal("kernel-hit has no pinned digest at the default budget")
	}
	res, out := runTiny(t, o)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("default-seed run disagrees with its pin:\n%s", out)
	}
}
