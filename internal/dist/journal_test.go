package dist

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fdip/internal/core"
	"fdip/internal/engine"
)

// synthRange fabricates a committed range's outcomes (no simulation needed
// to test journal mechanics).
func synthRange(start, count int) []engine.RunOutcome {
	outs := make([]engine.RunOutcome, count)
	for i := range outs {
		outs[i] = engine.RunOutcome{
			Job:    engine.Job{Name: "synth", Workload: "gcc", Seed: int64(start + i)},
			Index:  start + i,
			Result: core.Result{Prefetcher: "none", Cycles: int64(1000 + start + i), IPC: 1.5},
		}
	}
	return outs
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, completed, err := OpenJournal(path, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 0 {
		t.Fatalf("fresh journal reports %d completed ranges", len(completed))
	}
	r0, r4 := synthRange(0, 2), synthRange(4, 2)
	if err := j.Commit(0, r0); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(4, r4); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, completed, err = OpenJournal(path, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 2 {
		t.Fatalf("reopened journal holds %d ranges, want 2", len(completed))
	}
	for start, want := range map[int][]engine.RunOutcome{0: r0, 4: r4} {
		got, ok := completed[start]
		if !ok {
			t.Fatalf("range %d missing after reopen", start)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("range %d outcomes drifted through the journal:\ngot  %+v\nwant %+v", start, got, want)
		}
	}
}

func TestJournalRejectsForeignSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := OpenJournal(path, 43, 8, 2); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("journal with fingerprint 42 opened under 43: err = %v", err)
	}
	if _, _, err := OpenJournal(path, 42, 8, 4); err == nil {
		t.Error("journal chunked at 2 opened under chunk 4 (range boundaries would not line up)")
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a partial final
// line; reopening must recover every complete record, drop the torn one, and
// leave the file appendable.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, err := OpenJournal(path, 7, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(0, synthRange(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(2, synthRange(2, 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"range","start":4,"count":2,"outco`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, completed, err := OpenJournal(path, 7, 8, 2)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	if len(completed) != 2 {
		t.Fatalf("recovered %d ranges, want 2 (torn range 4 must be dropped, ranges 0 and 2 kept)", len(completed))
	}
	if _, ok := completed[4]; ok {
		t.Fatal("torn range 4 was trusted")
	}
	// The journal must still accept appends after truncation.
	if err := j2.Commit(4, synthRange(4, 2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, completed, err = OpenJournal(path, 7, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 3 {
		t.Fatalf("post-recovery journal holds %d ranges, want 3", len(completed))
	}
}

// TestJournalTornHeaderStartsFresh: a crash before the header's first fsync
// leaves a torn header; reopening must start a fresh journal under the new
// identity, and that journal must be usable.
func TestJournalTornHeaderStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte(`{"type":"head`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, completed, err := OpenJournal(path, 7, 8, 2)
	if err != nil {
		t.Fatalf("open over a torn header: %v", err)
	}
	if len(completed) != 0 {
		t.Fatalf("torn-header journal reports %d completed ranges", len(completed))
	}
	if err := j.Commit(0, synthRange(0, 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, completed, err = OpenJournal(path, 7, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(completed) != 1 {
		t.Fatalf("restarted journal holds %d ranges, want 1", len(completed))
	}
}

// TestJournalForeignLeftIntact: a journal that belongs to another sweep — or
// a file that is no checkpoint journal at all — is refused without a byte of
// it changing. Its later lines need not validate as this sweep's ranges, so
// the replay must never treat them as a torn tail.
func TestJournalForeignLeftIntact(t *testing.T) {
	dir := t.TempDir()
	other := filepath.Join(dir, "other")
	j, _, err := OpenJournal(other, 42, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(0, synthRange(0, 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	queue := filepath.Join(dir, "queue.journal")
	if err := os.WriteFile(queue, []byte("{\"op\":\"submit\",\"id\":\"s000001\"}\n{\"op\":\"done\",\"id\":\"s000001\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{other, queue} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(path, 43, 8, 2); err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Errorf("%s opened under fingerprint 43: err = %v", filepath.Base(path), err)
		}
		if after, _ := os.ReadFile(path); string(after) != string(before) {
			t.Errorf("%s changed on disk:\nbefore %q\nafter  %q", filepath.Base(path), before, after)
		}
	}
}

// TestJournalPreventsReexecution is the checkpoint/resume satellite's core
// assertion, at the coordinator level with an instrumented dialer: a killed
// run's committed ranges are never re-executed on resume, and its incomplete
// ranges are never lost.
func TestJournalPreventsReexecution(t *testing.T) {
	p := testPlan()
	journal := filepath.Join(t.TempDir(), "j")
	opts := func(d Dialer) Options {
		return Options{Dialer: d, Shards: 1, ChunkPoints: 2, Journal: journal}
	}

	// Run 1 consumes one range then dies.
	run1 := newChaosDialer(Loopback{Workers: 2}, 0)
	for out, err := range New(opts(run1)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("run 1: %v / %v", err, out.Err)
		}
		if out.Index >= 1 {
			break
		}
	}

	// Run 2 finishes. Range 0 must come from the journal, every other range
	// must execute, and no point may be lost or doubled.
	run2 := newChaosDialer(Loopback{Workers: 2}, 0)
	seen := make([]bool, p.Points())
	for out, err := range New(opts(run2)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("run 2: %v / %v", err, out.Err)
		}
		if seen[out.Index] {
			t.Fatalf("point %d delivered twice on resume", out.Index)
		}
		seen[out.Index] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("point %d lost across the restart", i)
		}
	}
	executed := run2.executedStarts()
	for _, start := range executed {
		if start == 0 {
			t.Errorf("journaled range 0 was re-executed on resume (executed: %v)", executed)
		}
	}
	if len(executed) != 2 {
		t.Errorf("resume executed ranges %v; want the two non-journaled ranges [2 4]", executed)
	}
}
