package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Journal is the structured run journal: an append-only JSONL event log.
// Every event is one line — {"seq":N,"ts":"...","event":"name",...} — with
// a sequence number monotonic from 1 within the journal, so gaps or
// reordering in shipped logs are detectable. Writes are serialized by an
// internal mutex; a nil *Journal drops events, mirroring the nil-Registry
// convention, so event paths need no enablement branches.
//
// Journals sit on event paths (a model swap, a cell requeue, an episode
// boundary), never on per-decision hot paths: an event marshals JSON and
// blocks on the writer. The first write error is sticky (Err) and later
// events are dropped — observability must not take the observed process
// down with a full disk.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer // non-nil when the journal owns the file
	seq uint64
	now func() time.Time
	err error
	buf bytes.Buffer
}

// NewJournal journals onto w. The caller keeps ownership of w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, now: time.Now}
}

// OpenJournal opens (creating, append-only) the JSONL file at path. Close
// releases it; sequence numbers still start at 1 per process, so a reused
// file carries one monotonic run per process lifetime.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: journal: %w", err)
	}
	j := NewJournal(f)
	j.c = f
	return j, nil
}

// Event appends one event line built from alternating key/value pairs
// (trailing odd keys get null). Keys must be plain strings; values are
// JSON-marshaled (unmarshalable values degrade to their fmt string). A nil
// journal drops the event.
func (j *Journal) Event(event string, kv ...any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	b := &j.buf
	b.Reset()
	b.WriteString(`{"seq":`)
	b.WriteString(strconv.FormatUint(j.seq, 10))
	b.WriteString(`,"ts":`)
	b.WriteString(strconv.Quote(j.now().Format(time.RFC3339Nano)))
	b.WriteString(`,"event":`)
	b.WriteString(strconv.Quote(event))
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b.WriteByte(',')
		b.WriteString(strconv.Quote(key))
		b.WriteByte(':')
		if i+1 >= len(kv) {
			b.WriteString("null")
			continue
		}
		v, err := json.Marshal(kv[i+1])
		if err != nil {
			v, _ = json.Marshal(fmt.Sprint(kv[i+1]))
		}
		b.Write(v)
	}
	b.WriteString("}\n")
	if _, err := j.w.Write(b.Bytes()); err != nil {
		j.err = fmt.Errorf("telemetry: journal write: %w", err)
	}
}

// Err reports the sticky first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close releases an OpenJournal file (no-op for NewJournal and nil).
func (j *Journal) Close() error {
	if j == nil || j.c == nil {
		return nil
	}
	return j.c.Close()
}
