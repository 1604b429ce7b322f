package stats

import (
	"cmp"
	"math"
	"slices"
)

// Point is one observation of a Sample: a value and the observation's stable
// sequence number in the overall stream (a sweep's enumeration index), which
// breaks ties deterministically.
type Point struct {
	Value float64
	Index int
}

// Sample is the exact summary of a bounded scalar stream: it keeps every
// (value, index) point, 16 B each, and sorts them once by (value, index) when
// a result is first asked for. Every result is a function of the sorted
// points alone, so it is bit-identical whatever order the points were Added
// in — a sharded sweep reports exactly what a sequential one does. Sweeps
// know their point count when the plan is built, so holding the points is
// cheap (1.6 MB per 100k points).
//
// NaN values sort below every number; they count in Len and poison the mean
// and stddev, but fall in no bucket.
//
// The zero Sample is empty and ready for use.
type Sample struct {
	pts    []Point
	sorted bool
}

// Add folds one observation.
func (s *Sample) Add(v float64, index int) {
	s.pts = append(s.pts, Point{Value: v, Index: index})
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.pts) }

func (s *Sample) sort() {
	if s.sorted {
		return
	}
	slices.SortFunc(s.pts, func(a, b Point) int {
		if c := cmp.Compare(a.Value, b.Value); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	s.sorted = true
}

// Percentile returns the nearest-rank p-th percentile (0 <= p <= 100): the
// smallest value with at least p% of the sample at or below it, i.e. the
// value of rank ceil(p*n/100), computed in integers so no rounding moves the
// rank. p = 0 gives the minimum; an empty sample gives 0.
func (s *Sample) Percentile(p int) float64 {
	n := len(s.pts)
	if n == 0 {
		return 0
	}
	s.sort()
	rank := max((p*n+99)/100, 1)
	return s.pts[rank-1].Value
}

// Mean returns the arithmetic mean (0 when empty), summed in sorted order.
func (s *Sample) Mean() float64 {
	if len(s.pts) == 0 {
		return 0
	}
	s.sort()
	var sum float64
	for _, p := range s.pts {
		sum += p.Value
	}
	return sum / float64(len(s.pts))
}

// StdDev returns the population standard deviation (0 when empty), summing
// squared deviations from Mean in sorted order.
func (s *Sample) StdDev() float64 {
	if len(s.pts) == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, p := range s.pts {
		d := p.Value - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.pts)))
}

// Bottom returns the k lowest points, lowest first; equal values keep the
// lower index first.
func (s *Sample) Bottom(k int) []Point {
	s.sort()
	return slices.Clone(s.pts[:min(max(k, 0), len(s.pts))])
}

// Top returns the k highest points, highest first; equal values keep the
// lower index first.
func (s *Sample) Top(k int) []Point {
	s.sort()
	out := make([]Point, 0, min(max(k, 0), len(s.pts)))
	// Walk runs of equal values down from the top, each run in index order.
	for hi := len(s.pts); hi > 0 && len(out) < k; {
		lo := hi - 1
		for lo > 0 && s.pts[lo-1].Value == s.pts[hi-1].Value {
			lo--
		}
		out = append(out, s.pts[lo:min(hi, lo+k-len(out))]...)
		hi = lo
	}
	return out
}

// Buckets counts the sample over n equal buckets of [lo, hi): counts[i] holds
// the values in [lo + i*w, lo + (i+1)*w) with w = (hi-lo)/n, under those
// below lo and over those at or above hi. It requires n > 0 and hi > lo.
func (s *Sample) Buckets(lo, hi float64, n int) (counts []int, under, over int) {
	counts = make([]int, n)
	for _, p := range s.pts {
		switch x := p.Value; {
		case math.IsNaN(x):
		case x < lo:
			under++
		case x >= hi:
			over++
		default:
			// x just under hi can round the scaled index up to n.
			counts[min(int(float64(n)*(x-lo)/(hi-lo)), n-1)]++
		}
	}
	return counts, under, over
}
