package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// walName is the journal file inside the manager's data directory;
// lockName is the flock target that pins the directory to one owner.
const (
	walName  = "jobs.wal"
	lockName = "jobs.lock"
)

// record is one write-ahead-log entry. The journal is append-only
// JSONL: an "accept" record makes a submitted job durable before the
// client is answered, and exactly one terminal record ("done", "fail"
// or "cancel") later settles it. A job whose accept record has no
// terminal record when the log is replayed — the daemon was killed
// while the job was queued or running — is re-enqueued and re-run;
// every fill algorithm is deterministic, so the re-run answers
// byte-identically to what the lost run would have.
type record struct {
	Op string `json:"op"` // accept | done | fail | cancel
	ID string `json:"id"`
	// Accept fields. Key is the client's idempotency key, journaled so
	// submit dedupe survives a restart; Rid is the accepting request's
	// trace ID, journaled so a replayed run's completion log still
	// correlates with the submit that created the job.
	Key     string          `json:"key,omitempty"`
	Rid     string          `json:"rid,omitempty"`
	Created time.Time       `json:"created,omitzero"`
	Total   int             `json:"total,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Terminal fields.
	Finished time.Time       `json:"finished,omitzero"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// wal is the append-only journal. Appends are synced to disk before
// returning, so an accepted job survives any crash after its Submit
// call answered. Appends serialize on the wal's own mutex — never the
// manager's — so status reads don't stall behind fsyncs.
type wal struct {
	path string
	mu   sync.Mutex
	f    *os.File
	lock *os.File // held flock pinning the data dir to this process
}

// openWAL opens (creating if needed) the journal under dir and returns
// it alongside every record currently in it. A trailing partial line —
// a crash mid-append — is dropped silently: the record never became
// durable, so the job it settled (or created) is simply re-run (or was
// never acknowledged).
//
// The directory is pinned to one process via an flock on a sidecar
// lock file, taken before the journal is even read. Without it, a
// second daemon on the same -data-dir would run startup compaction and
// rename a rewritten journal over the live one while the first daemon
// still appends to the old inode — its fsync'd accepts silently
// orphaned. The lock file (not the journal itself) carries the flock
// because compaction renames the journal, which would strand the lock
// on the replaced inode.
func openWAL(dir string) (*wal, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: creating data dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal lock: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, nil, err
	}
	path := filepath.Join(dir, walName)
	recs, err := readWAL(path)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	return &wal{path: path, f: f, lock: lock}, recs, nil
}

// readWAL parses every complete record of the journal at path; a
// missing file is an empty journal.
func readWAL(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("jobs: reading journal: %w", err)
	}
	defer f.Close()
	var recs []record
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A line without its newline is a torn final append; drop it.
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("jobs: reading journal: %w", err)
		}
		var rec record
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			// A complete but unparsable line means the journal is
			// corrupt beyond a torn tail; refuse to guess.
			return nil, fmt.Errorf("jobs: corrupt journal record: %w", jerr)
		}
		recs = append(recs, rec)
	}
}

// encode renders rec as one journal line. The fixed fields go through
// json.Marshal; the payload or result, already encoded by the host's
// json.Marshal, is spliced in as the record's last field, which is
// where json.Marshal(rec) would put it. Marshaling it again would only
// re-validate and re-compact a megabyte of JSON into the same bytes. A
// raw newline would split the record, so it is refused.
func (rec record) encode() ([]byte, error) {
	field, raw := `,"payload":`, rec.Payload
	if len(rec.Result) > 0 {
		field, raw = `,"result":`, rec.Result
	}
	rec.Payload, rec.Result = nil, nil
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	if len(raw) == 0 {
		return append(data, '\n'), nil
	}
	if bytes.IndexByte(raw, '\n') >= 0 {
		return nil, errors.New("jobs: encoding journal record: payload holds a raw newline")
	}
	line := make([]byte, 0, len(data)+len(field)+len(raw)+2)
	line = append(line, data[:len(data)-1]...)
	line = append(line, field...)
	line = append(line, raw...)
	return append(line, '}', '\n'), nil
}

// append journals one record durably: encode, write, fsync.
func (w *wal) append(rec record) error {
	data, err := rec.encode()
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(data); err != nil {
		return fmt.Errorf("jobs: appending journal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: syncing journal: %w", err)
	}
	return nil
}

// rewrite atomically replaces the journal with the given records —
// startup compaction after retention has dropped settled history.
func (w *wal) rewrite(recs []record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rewriteLocked(recs)
}

// compact rewrites the journal to the records snapshot returns —
// online compaction for long-lived daemons. snapshot runs under the
// wal lock, so no append can interleave between the snapshot and the
// rewrite; it may decline (ok=false) to leave the journal untouched.
func (w *wal) compact(snapshot func() (recs []record, ok bool)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	recs, ok := snapshot()
	if !ok {
		return nil
	}
	return w.rewriteLocked(recs)
}

func (w *wal) rewriteLocked(recs []record) error {
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, rec := range recs {
		data, err := rec.encode()
		if err != nil {
			f.Close()
			return err
		}
		if _, err := bw.Write(data); err != nil {
			f.Close()
			return fmt.Errorf("jobs: compacting journal: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobs: syncing compacted journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("jobs: installing compacted journal: %w", err)
	}
	// The append handle must follow the rename: reopen on the new file.
	if err := w.f.Close(); err != nil {
		return err
	}
	f, err = os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: reopening compacted journal: %w", err)
	}
	w.f = f
	return nil
}

// size reports the journal file's current length in bytes — the
// /metrics journal-size gauge. 0 when the file cannot be statted.
func (w *wal) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	fi, err := w.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// close releases the journal's file handle and the ownership lock
// (closing the lock file drops its flock).
func (w *wal) close() error {
	err := w.f.Close()
	if cerr := w.lock.Close(); err == nil {
		err = cerr
	}
	return err
}
