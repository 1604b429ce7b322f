package dist

import (
	"fmt"
	"strings"

	"fdip/internal/engine"
	"fdip/internal/stats"
)

// Metric projects one successful outcome to the scalar a Summary reduces.
type Metric func(engine.RunOutcome) float64

// IPC is the canonical metric: the point's instructions per cycle.
func IPC(out engine.RunOutcome) float64 { return out.Result.IPC }

// MissPKI reduces the would-be L1-I miss rate per kilo-instruction.
func MissPKI(out engine.RunOutcome) float64 { return out.Result.MissPKI }

// BusUtilPct reduces the L1<->L2 bus utilisation percentage.
func BusUtilPct(out engine.RunOutcome) float64 { return out.Result.BusUtilPct }

// Summary is the exact reduction of a sweep over one metric: every
// successful point's value kept in a stats.Sample, which yields the mean,
// population stddev, nearest-rank p50/p90, the k best and k worst points
// (ties to the lower enumeration index) and a fixed-bucket histogram, plus a
// failure count. All of them depend only on the set of outcomes observed,
// never on their order, so a sharded sweep prints exactly the summary of a
// single-process one.
type Summary struct {
	// MetricName labels the reduced metric in reports.
	MetricName string
	// Failures counts outcomes that carried an error (excluded from the
	// metric's sample).
	Failures int

	k      int
	metric Metric
	sample stats.Sample
	names  map[int]string // job name per observed enumeration index
}

// Histogram geometry of the report: histBuckets buckets over [0, histHi),
// suited to IPC-scaled metrics; out-of-range values land in the under/over
// counts rather than being lost.
const (
	histHi      = 8.0
	histBuckets = 32
)

// NewSummary builds a summary over metric, reporting k extremes each way.
func NewSummary(name string, k int, metric Metric) *Summary {
	return &Summary{MetricName: name, k: k, metric: metric, names: map[int]string{}}
}

// Observe folds one outcome.
func (s *Summary) Observe(out engine.RunOutcome) {
	if out.Err != nil {
		s.Failures++
		return
	}
	s.sample.Add(s.metric(out), out.Index)
	s.names[out.Index] = out.Job.Name
}

// String renders the summary in report form.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.4f stddev=%.4f p50=%.4f p90=%.4f failures=%d",
		s.MetricName, s.sample.Len(), s.sample.Mean(), s.sample.StdDev(),
		s.sample.Percentile(50), s.sample.Percentile(90), s.Failures)
	for _, p := range s.sample.Top(s.k) {
		fmt.Fprintf(&b, "\n  top    %-40s %.4f", s.names[p.Index], p.Value)
	}
	for _, p := range s.sample.Bottom(s.k) {
		fmt.Fprintf(&b, "\n  bottom %-40s %.4f", s.names[p.Index], p.Value)
	}
	counts, under, over := s.sample.Buckets(0, histHi, histBuckets)
	fmt.Fprintf(&b, "\n  hist[0,%g)/%d:", float64(histHi), histBuckets)
	empty := under+over == 0
	if under > 0 {
		fmt.Fprintf(&b, " <0:%d", under)
	}
	w := histHi / histBuckets
	for i, c := range counts {
		if c > 0 {
			fmt.Fprintf(&b, " [%.3g,%.3g):%d", float64(i)*w, float64(i+1)*w, c)
			empty = false
		}
	}
	if over > 0 {
		fmt.Fprintf(&b, " >=%g:%d", float64(histHi), over)
	}
	if empty {
		b.WriteString(" empty")
	}
	return b.String()
}
