// Package wal is the one append-only log behind every durable file of the
// sweep stack: the coordinator's checkpoint journal and the service's queue
// journal. A record is one '\n'-terminated JSON line, fsynced before Append
// returns, so an acknowledged record survives a kill -9 or a power loss.
//
// Torn-tail rule: Open replays every line through the caller's callback; the
// first line that has no newline, or that the callback rejects, marks the
// tear, and Open truncates the file from there. A crash mid-append costs at
// most the record being written, never an earlier one.
//
// Poison rule: after a failed write or fsync, every later Append returns that
// first error. The failed record may have left partial bytes behind, and a
// record appended after them would share their line and be cut away as the
// tear on the next Open — so nothing is acknowledged behind a torn record.
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Log is an open append-only log. Append and Close are safe for concurrent
// use.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	err error // first failed append; returned by every later Append
}

// Open opens the log at path, creating it (and fsyncing its directory, so the
// file itself survives a power loss) if absent. Each complete line is passed
// to replay, without its newline, in file order; the torn-tail rule decides
// where the log ends, and the file is truncated there.
func Open(path string, replay func(line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	} else if err == nil {
		if err = syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			os.Remove(path)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	rd := bufio.NewReader(f)
	valid, torn := int64(0), false
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			torn = len(line) > 0
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if replay(line[:len(line)-1]) != nil {
			torn = true
			break
		}
		valid += int64(len(line))
	}
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return &Log{f: f}, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append durably writes v as one record: marshal, write one line, fsync.
func (l *Log) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(b); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
	} else if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
	}
	return l.err
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
