package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fdip/internal/core"
	"fdip/internal/engine"
)

// row is one point's canonical output: its name and the JSON encoding of its
// core.Result. Two paths agree on a point exactly when their rows are equal,
// byte for byte.
type row struct {
	name   string
	result []byte
}

func newRow(name string, r core.Result) row {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // core.Result holds only numbers and strings
	}
	return row{name: name, result: b}
}

func (a row) equal(b row) bool { return a.name == b.name && string(a.result) == string(b.result) }

// digest hashes rows in index order; equal digests mean equal rows.
func digest(rows []row) string {
	h := sha256.New()
	for i, r := range rows {
		fmt.Fprintf(h, "%d %s ", i, r.name)
		h.Write(r.result)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checker does the run's operation accounting: every checked point is one
// attempted operation, and a mismatch, a stream error, or a missing or
// duplicate row is one failed operation.
type checker struct {
	rep *report
	// pins are the pinned digests of this workload and budget; pinned is
	// false where the run's results are unpinned (kernel workloads at seeds
	// other than the default).
	pins   []string
	pinned bool
}

// pinKey names the pins of a workload at a per-point budget.
func pinKey(workload string, instrs uint64) string {
	return fmt.Sprintf("%s@%d", workload, instrs)
}

// account records n attempted operations of which failed failed.
func (c *checker) account(n, failed int, why string) {
	c.rep.attempted += n
	c.rep.failed += failed
	if failed > 0 {
		c.rep.note("FAILED %d of %d: %s", failed, n, why)
	}
}

// checkPin compares the digest of result set k (the kernel points, or the
// sweep at budget offset k) with its pin and returns how many of its n
// points fail (all of them on a mismatch). For an unpinned run, or without
// a pin, nothing is compared.
func (c *checker) checkPin(k int, d string, n int) int {
	if !c.pinned || k >= len(c.pins) {
		return 0
	}
	if c.pins[k] != d {
		c.rep.note("FAILED digest %d: got %s, pinned %s", k, d, c.pins[k])
		return n
	}
	return 0
}

// compareOutcomes checks streamed outcomes against the reference rows by
// index and returns the failed count and a reason. wantCached, when set,
// also requires every outcome to be cache-served.
func compareOutcomes(want []row, outs []engine.RunOutcome, wantCached bool) (failed int, why string) {
	seen := make([]bool, len(want))
	fail := func(format string, args ...any) {
		failed++
		if why == "" {
			why = fmt.Sprintf(format, args...)
		}
	}
	for _, out := range outs {
		i := out.Index
		switch {
		case i < 0 || i >= len(want):
			fail("row index %d out of range", i)
		case seen[i]:
			fail("duplicate row %d", i)
		case out.Err != nil:
			seen[i] = true
			fail("row %d: %v", i, out.Err)
		case !newRow(out.Job.Name, out.Result).equal(want[i]):
			seen[i] = true
			fail("row %d (%s) differs from the engine.Stream reference", i, out.Job.Name)
		case wantCached && !out.Cached:
			seen[i] = true
			fail("row %d was re-simulated, not served from the cache", i)
		default:
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			fail("row %d missing", i)
		}
	}
	return failed, why
}
