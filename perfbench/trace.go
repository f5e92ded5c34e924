package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. The spans of one request
// share Req; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	Req    int    `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans of one goroutine in memory. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	ids   *atomic.Int64 // shared by every tracer of a run: IDs are unique
	req   int
	open  []int // indexes into spans of the spans not yet ended
	spans []span
}

func newTracer(epoch time.Time, ids *atomic.Int64) *tracer {
	return &tracer{epoch: epoch, ids: ids}
}

// forRequest makes later spans belong to request req.
func (t *tracer) forRequest(req int) {
	if t != nil {
		t.req = req
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name, attr string) int {
	if t == nil {
		return 0
	}
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		Req: t.req, ID: t.ids.Add(1), Parent: parent, Name: name, Attr: attr,
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned, which must be the innermost open one.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// writeSpans writes the header and then the spans as JSON lines.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
