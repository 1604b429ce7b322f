package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// exactMoments computes mean/variance the naive two-pass way as the oracle.
func exactMoments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return
}

func sampleOf(xs []float64) *Sample {
	var s Sample
	for i, x := range xs {
		s.Add(x, i)
	}
	return &s
}

func TestMomentsMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 100 + rng.NormFloat64()*3 // offset mean: the catastrophic case for naive sum-of-squares
	}
	s := sampleOf(xs)
	wantMean, wantVar := exactMoments(xs)
	if s.Len() != 1000 {
		t.Fatalf("len = %d", s.Len())
	}
	if math.Abs(s.Mean()-wantMean) > 1e-9 {
		t.Errorf("mean = %v, want %v", s.Mean(), wantMean)
	}
	if math.Abs(s.StdDev()-math.Sqrt(wantVar)) > 1e-9 {
		t.Errorf("stddev = %v, want %v", s.StdDev(), math.Sqrt(wantVar))
	}
}

// shardedSample folds xs as a sharded sweep would deliver it: point i goes to
// shard i%shards, and the shards arrive whole in reverse order.
func shardedSample(xs []float64, shards int) *Sample {
	var s Sample
	for sh := shards - 1; sh >= 0; sh-- {
		for i := sh; i < len(xs); i += shards {
			s.Add(xs[i], i)
		}
	}
	return &s
}

// TestMomentsMergeMatchesSequential pins the distributed contract: a Sample
// fed shard by shard, in any shard order, yields bit-identically the mean
// and stddev of the sequential fold, because both are summed in sorted order.
func TestMomentsMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 997) // prime: shards of uneven length
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 10
	}
	seq := sampleOf(xs)
	for _, shards := range []int{1, 2, 8, 31} {
		merged := shardedSample(xs, shards)
		if merged.Len() != seq.Len() {
			t.Fatalf("shards=%d: len %d != %d", shards, merged.Len(), seq.Len())
		}
		if merged.Mean() != seq.Mean() || merged.StdDev() != seq.StdDev() {
			t.Errorf("shards=%d: mean/stddev %v/%v != sequential %v/%v",
				shards, merged.Mean(), merged.StdDev(), seq.Mean(), seq.StdDev())
		}
	}
}

// exactTopK is the oracle: sort the full stream by score (descending for
// top, ascending for bottom), ties to the lower index, and take k.
func exactTopK(scores []float64, k int, bottom bool) []Point {
	pts := make([]Point, len(scores))
	for i, s := range scores {
		pts[i] = Point{Value: s, Index: i}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Value != pts[j].Value {
			if bottom {
				return pts[i].Value < pts[j].Value
			}
			return pts[i].Value > pts[j].Value
		}
		return pts[i].Index < pts[j].Index
	})
	return pts[:min(k, len(pts))]
}

func samePoints(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s point %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestTopKMatchesExactCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = math.Floor(rng.Float64()*50) / 10 // coarse grid: plenty of exact ties
	}
	s := sampleOf(scores)
	for _, k := range []int{0, 1, 7, 64, 600} {
		samePoints(t, "top", s.Top(k), exactTopK(scores, k, false))
		samePoints(t, "bottom", s.Bottom(k), exactTopK(scores, k, true))
	}
}

// TestTopKShardMergeBitIdentical pins the distributed contract exactly:
// feeding a Sample shard by shard, in any shard order, yields the identical
// extremes — points, order and all — as the sequential fold. The index
// tie-break is what makes this hold in the presence of equal scores.
func TestTopKShardMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scores := make([]float64, 300)
	for i := range scores {
		scores[i] = math.Floor(rng.Float64()*20) / 10 // ~15 distinct values over 300 items: ties dominate
	}
	const k = 25
	seq := sampleOf(scores)
	for _, shards := range []int{1, 2, 8} {
		merged := shardedSample(scores, shards)
		samePoints(t, "top", merged.Top(k), seq.Top(k))
		samePoints(t, "bottom", merged.Bottom(k), seq.Bottom(k))
	}
}

// TestSampleNearestRank pins Percentile to the nearest-rank definition: the
// value of rank ceil(p*n/100), 1-based, with p=0 the minimum.
func TestSampleNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    int
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 0, 7},
		{[]float64{7}, 100, 7},
		{[]float64{7, 3, 11, 5}, 0, 3},
		{[]float64{7, 3, 11, 5}, 25, 3},
		{[]float64{7, 3, 11, 5}, 26, 5},
		{[]float64{7, 3, 11, 5}, 50, 5},
		{[]float64{7, 3, 11, 5}, 90, 11},
		// 70% of 10 is rank 7 exactly; float 0.7*10 would round up to 8.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 70, 7},
	} {
		if got := sampleOf(tc.xs).Percentile(tc.p); got != tc.want {
			t.Errorf("p%d of %v = %v, want %v", tc.p, tc.xs, got, tc.want)
		}
	}
}

// TestSampleBuckets pins the bucket edges: lo inclusive, hi exclusive,
// values just under hi in the last bucket, NaN in none.
func TestSampleBuckets(t *testing.T) {
	s := sampleOf([]float64{0, math.Nextafter(4, 0), 4, -0.001, math.NaN(), 1.5})
	counts, under, over := s.Buckets(0, 4, 4)
	if want := []int{1, 1, 0, 1}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	if under != 1 || over != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", under, over)
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d, want 6 (NaN counts)", s.Len())
	}
}
