package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one event or batch share
// Trace; Parent names the span that made the call (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the span log was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, which is how untraced runs skip it.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span ID, so that a span's children can name it as
// their parent before it ends.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// record stores a finished span under a reserved id (0 reserves one).
func (l *spanLog) record(id uint64, name string, trace, parent uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id == 0 {
		l.next++
		id = l.next
	}
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
}

// durations returns every span called name's duration in nanoseconds.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part of its interval that its child spans cover.
func (l *spanLog) selfTimes(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered(s, children[s.ID])))
		}
	}
	return out
}

// covered is the length of the union of kids' intervals, clipped to
// parent's interval.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if open && start <= curEnd {
			curEnd = max(curEnd, end)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = start, end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
