package svc

import (
	"encoding/json"
	"fmt"

	"fdip/internal/wal"
)

// queueRecord is one line of the queue journal: a submission (with its full
// request, so restart can rebuild the plan) or a terminal transition. Sweeps
// with a submit record and no terminal record are unfinished — they re-queue
// on restart, resuming from their own dist journals.
type queueRecord struct {
	Op    string         `json:"op"` // "submit" | "done" | "failed"
	ID    string         `json:"id"`
	Req   *SubmitRequest `json:"req,omitempty"`
	Error string         `json:"error,omitempty"`
}

// openQueueJournal opens (or creates) the service's durable submission log at
// path, returning the records that survive wal's torn-tail rule, in order. A
// submission is acknowledged only after its Append returns.
func openQueueJournal(path string) (*wal.Log, []queueRecord, error) {
	var records []queueRecord
	q, err := wal.Open(path, func(line []byte) error {
		var rec queueRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("svc: open queue journal: %w", err)
	}
	return q, records, nil
}
