package dist

import (
	"encoding/json"
	"fmt"

	"fdip/internal/engine"
	"fdip/internal/wal"
)

// The journal is the coordinator's checkpoint: a wal log whose first record
// is a header binding it to one (plan, chunking, budget) fingerprint,
// followed by one record per completed range carrying the range's outcomes.
// A range is journaled only after every one of its outcomes arrived and
// validated, so the journal never contains partial ranges — resume replays
// completed ranges verbatim and re-executes everything else, which is exactly
// the at-least-once-per-range / exactly-once-per-delivered-outcome semantics
// the merge contract needs.
//
// Crash tolerance is wal's torn-tail rule: a range record that is torn, or
// that decodes but is internally inconsistent, is truncated away with
// everything after it, sacrificing (at most) the final range's work, never
// correctness. A torn header leaves an empty journal, which starts afresh.
type journalRecord struct {
	Type string `json:"type"` // "header" | "range"

	// Header fields: the identity of the sweep this journal checkpoints.
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Points      int    `json:"points,omitempty"`
	Chunk       int    `json:"chunk,omitempty"`

	// Range fields.
	Start    int                 `json:"start"`
	Count    int                 `json:"count"`
	Outcomes []engine.RunOutcome `json:"outcomes,omitempty"`
}

// Journal is an open checkpoint file positioned for appends.
type Journal struct{ log *wal.Log }

// OpenJournal opens (creating if absent) the journal at path for a sweep
// with the given identity, returning the completed ranges it already holds,
// keyed by range start. A journal written by a different plan, chunking, or
// budget is rejected — replaying someone else's outcomes would silently
// corrupt the sweep.
func OpenJournal(path string, fingerprint uint64, points, chunk int) (*Journal, map[int][]engine.RunOutcome, error) {
	var hdr *journalRecord
	foreign := false
	completed := make(map[int][]engine.RunOutcome)
	log, err := wal.Open(path, func(line []byte) error {
		if foreign {
			return nil // rejected below; never truncate someone else's journal
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if hdr == nil {
			hdr = &rec
			foreign = rec.Type != "header" || rec.Fingerprint != fingerprint || rec.Points != points || rec.Chunk != chunk
			return nil
		}
		if rec.Type != "range" || len(rec.Outcomes) != rec.Count || rec.Count <= 0 {
			return fmt.Errorf("inconsistent range record at %d", rec.Start)
		}
		completed[rec.Start] = rec.Outcomes
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dist: journal: %w", err)
	}
	switch {
	case foreign:
		log.Close()
		return nil, nil, fmt.Errorf("dist: journal %s belongs to a different sweep (fingerprint %#x points %d chunk %d; want %#x/%d/%d) — remove it or pick another path",
			path, hdr.Fingerprint, hdr.Points, hdr.Chunk, fingerprint, points, chunk)
	case hdr == nil:
		// Fresh journal: stamp the header and start appending.
		if err := log.Append(journalRecord{Type: "header", Fingerprint: fingerprint, Points: points, Chunk: chunk}); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("dist: journal: %w", err)
		}
	}
	return &Journal{log: log}, completed, nil
}

// Commit durably records one completed range. The fsync is what upgrades
// "yielded to the consumer" into "survives a kill -9": a range is only
// journaled (and only skipped on resume) once its bytes are on disk.
func (j *Journal) Commit(start int, outs []engine.RunOutcome) error {
	if err := j.log.Append(journalRecord{Type: "range", Start: start, Count: len(outs), Outcomes: outs}); err != nil {
		return fmt.Errorf("dist: journal: append range [%d,%d): %w", start, start+len(outs), err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	return j.log.Close()
}
