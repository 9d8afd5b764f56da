package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/obs"
)

// completions is the benchmark's span sink: it keeps, per event, the
// wall time of the controller's completion record and its queue/rounds
// split. The controller delivers records from its own goroutine.
type completions struct {
	mu   sync.Mutex
	done map[int64]completion
	want int
	full chan struct{} // closed once done holds want records; nil when no one waits
}

type completion struct {
	wallNs, queueNs, roundsNs int64
}

func newCompletions() *completions { return &completions{done: map[int64]completion{}} }

func (c *completions) Emit(r *obs.Record) {
	if r.Kind != obs.KindStage || r.Stage == nil || r.Stage.Stage != obs.StageComplete {
		return
	}
	c.mu.Lock()
	c.done[r.Stage.Event] = completion{wallNs: r.Stage.WallNs, queueNs: r.Stage.QueueNs, roundsNs: r.Stage.RoundsNs}
	if c.full != nil && len(c.done) >= c.want {
		close(c.full)
		c.full = nil
	}
	c.mu.Unlock()
}

// wait blocks until the sink holds want completion records or timeout
// passes, and returns how many it holds. The benchmark learns of
// completions from the records alone, so it puts no load of its own on
// the controller's state loop while a drain runs.
func (c *completions) wait(want int, timeout time.Duration) int {
	c.mu.Lock()
	if len(c.done) >= want {
		defer c.mu.Unlock()
		return len(c.done)
	}
	full := make(chan struct{})
	c.want, c.full = want, full
	c.mu.Unlock()
	select {
	case <-full:
	case <-time.After(timeout):
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.full = nil
	return len(c.done)
}

func (c *completions) Flush() error { return nil }

// wallNs is the wall time (Unix ns) of event id's completion record.
func (c *completions) wallNs(id int64) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.done[id]
	return v.wallNs, ok
}

// traffic is what the load generator saw: per accepted event its
// scheduled send time and flow count, plus per-batch ack and lateness
// samples. It holds no pointers per event, so the garbage collector of
// the process the controller shares has nothing of it to scan.
type traffic struct {
	start    time.Time
	attempts int
	accepted map[int64]sentEvent // by event ID
	refused  int                 // overloaded or refused by the controller
	invalid  int                 // rejected as malformed
	shed     int                 // never reached the wire
	ackNs    []float64
	lateNs   []float64
}

type sentEvent struct {
	dueNs int64 // scheduled send time, Unix ns
	flows int
}

// inFlight is a batch written to a pipeline and not yet answered.
type inFlight struct {
	b   *batch
	due time.Time
	seq uint64
}

// send offers bs over conns pipelined v2 connections to addr, round-robin.
// Each batch is written when it is due (start + Due), or as soon as the
// generator gets to it when it is late; the generator never sheds load.
// With spans set, every batch's write-to-answer time is recorded as a
// "ctl.ack" span whose trace is seqBase plus the batch's 1-based index.
func send(addr string, conns int, bs []batch, spans *spanLog, seqBase uint64) (*traffic, error) {
	tr := &traffic{accepted: map[int64]sentEvent{}}
	var mu sync.Mutex
	queues := make([][]inFlight, conns)
	pipes := make([]*ctl.Pipeline, 0, conns)
	closeAll := func() {
		for _, p := range pipes {
			_ = p.Close()
		}
	}
	for i := 0; i < conns; i++ {
		i := i
		p, err := ctl.DialPipeline(addr, 0, func(r ctl.BatchResult) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			f := queues[i][0]
			queues[i] = queues[i][1:]
			tr.ackNs = append(tr.ackNs, float64(r.Latency))
			spans.record(0, "ctl.ack", f.seq, 0, now.Add(-r.Latency), now)
			if r.Err != nil {
				tr.refused += len(f.b.Events)
				return
			}
			for j, v := range r.Verdicts {
				switch {
				case v.OK:
					tr.accepted[v.EventID] = sentEvent{dueNs: f.due.UnixNano(), flows: len(f.b.Events[j].Flows)}
					continue
				case v.Overloaded:
					tr.refused++
				default:
					tr.invalid++
				}
			}
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		pipes = append(pipes, p)
	}
	tr.start = time.Now()
	for n := range bs {
		b := &bs[n]
		due := tr.start.Add(b.Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		tr.attempts += len(b.Events)
		i := n % conns
		mu.Lock()
		tr.lateNs = append(tr.lateNs, float64(time.Since(due)))
		queues[i] = append(queues[i], inFlight{b: b, due: due, seq: seqBase + uint64(n+1)})
		mu.Unlock()
		if err := pipes[i].SubmitBatch(b.Events, false); err != nil && !errors.Is(err, ctl.ErrInFlight) {
			mu.Lock()
			queues[i] = queues[i][:len(queues[i])-1]
			tr.shed += len(b.Events)
			mu.Unlock()
		}
	}
	closeAll()
	return tr, nil
}

// latencies turns the traffic into per-event wall latencies in ns, from
// scheduled send to completion, with every event that was attempted but
// not completed counted as +Inf. complete returns an accepted event's
// completion wall time.
func (tr *traffic) latencies(complete func(id int64) (int64, bool)) (lat []float64, last time.Time) {
	lat = make([]float64, 0, tr.attempts)
	for id, ev := range tr.accepted {
		wall, ok := complete(id)
		if !ok {
			continue
		}
		lat = append(lat, float64(wall-ev.dueNs))
		if t := time.Unix(0, wall); t.After(last) {
			last = t
		}
	}
	for len(lat) < tr.attempts {
		lat = append(lat, math.Inf(1))
	}
	return lat, last
}

// failed is every attempted event that did not complete.
func (tr *traffic) failed(completed int) int { return tr.attempts - completed }

// checkOutcomes is a sanity check that every attempted event got
// exactly one outcome.
func (tr *traffic) checkOutcomes() error {
	if got := len(tr.accepted) + tr.refused + tr.invalid + tr.shed; got != tr.attempts {
		return fmt.Errorf("%d outcomes for %d attempted events", got, tr.attempts)
	}
	return nil
}
