package main

// pinnedDigests are the results digests of the default seed (0), keyed by
// workload and per-point budget (pinKey). The kernel workloads pin one
// digest over all points (at seed 0); sweep-service pins one per budget
// offset k, the sweep at the base budget plus k, which seeds 0, 64, 128, ...
// run as their sweeps 0 to 3. A change that alters any simulated result
// changes a digest and fails the run.
var pinnedDigests = map[string][]string{
	"kernel-miss@100000":  {"0e2fedae82d01027"},
	"kernel-hit@100000":   {"ee8cb65732ee71e0"},
	"sweep-service@20000": {"63ef2fef4293ff11", "efbf2b461096cd5e", "a35f7a78ee615b20", "30142e80e0b9d9ca"},
}
