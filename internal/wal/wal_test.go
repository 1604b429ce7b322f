package wal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	N int `json:"n"`
}

// collect opens the log at path, returning the numbers its replay accepted.
// Lines that do not decode, or carry a negative n, are rejected.
func collect(t *testing.T, path string) (*Log, []int) {
	t.Helper()
	var got []int
	l, err := Open(path, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.N < 0 {
			return errors.New("negative")
		}
		got = append(got, r.N)
		return nil
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, got
}

// TestOpen pins the torn-tail rule: replay stops at the first line with no
// newline or that the callback rejects, the file is truncated there, and the
// log stays appendable behind the cut.
func TestOpen(t *testing.T) {
	for _, tc := range []struct {
		name    string
		absent  bool
		content string
		want    string // file after Open
		replay  []int
	}{
		{name: "missing file", absent: true},
		{name: "empty file"},
		{name: "clean log", content: "{\"n\":1}\n{\"n\":2}\n", want: "{\"n\":1}\n{\"n\":2}\n", replay: []int{1, 2}},
		{name: "torn final line", content: "{\"n\":1}\n{\"n\":2}\n{\"n\":", want: "{\"n\":1}\n{\"n\":2}\n", replay: []int{1, 2}},
		{name: "complete final record missing its newline", content: "{\"n\":1}\n{\"n\":2}", want: "{\"n\":1}\n", replay: []int{1}},
		{name: "rejected line mid-file", content: "{\"n\":1}\n{\"n\":-1}\n{\"n\":3}\n", want: "{\"n\":1}\n", replay: []int{1}},
		{name: "undecodable line mid-file", content: "{\"n\":1}\n{\"n\n{\"n\":3}\n", want: "{\"n\":1}\n", replay: []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if !tc.absent {
				if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, got := collect(t, path)
			if !reflect.DeepEqual(got, tc.replay) {
				t.Errorf("replayed %v, want %v", got, tc.replay)
			}
			if b, _ := os.ReadFile(path); string(b) != tc.want {
				t.Errorf("file after open = %q, want %q", b, tc.want)
			}

			// Append after truncation: the new record lands on its own line
			// right behind the last one kept.
			if err := l.Append(rec{N: 9}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			l, got = collect(t, path)
			l.Close()
			if want := append(tc.replay, 9); !reflect.DeepEqual(got, want) {
				t.Errorf("after append, replayed %v, want %v", got, want)
			}
			if b, _ := os.ReadFile(path); string(b) != tc.want+"{\"n\":9}\n" {
				t.Errorf("file after append = %q, want %q", b, tc.want+"{\"n\":9}\n")
			}
		})
	}
}

// TestAppendAfterFailurePoisons pins the poison rule. A write that fails
// after landing part of its record (a disk that fills mid-write) must stop
// the log: were a later Append to succeed once space is freed, its record
// would share the torn line and be cut away on the next Open — acknowledged,
// then lost.
func TestAppendAfterFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path)
	var acked []int
	if err := l.Append(rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, 1)

	// Half of record 2 lands, then the write fails: a read-only handle
	// stands in for the full disk.
	good := l.f
	if _, err := good.WriteString(`{"n":2,`); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	l.f = ro
	first := l.Append(rec{N: 2})
	if first == nil {
		t.Fatal("append through a read-only handle succeeded")
	}

	// Space is freed: the file is writable again, but the log must not be.
	l.f = good
	if err := l.Append(rec{N: 3}); err == nil {
		acked = append(acked, 3)
	} else if err != first {
		t.Errorf("append after a failure returned %v, want the first error %v", err, first)
	}
	l.Close()

	l, got := collect(t, path)
	l.Close()
	for _, n := range acked {
		found := false
		for _, g := range got {
			found = found || g == n
		}
		if !found {
			t.Errorf("acknowledged record %d lost across reopen (replayed %v)", n, got)
		}
	}
}
