package ctl

import (
	"fmt"

	"netupdate/internal/obs"
	"netupdate/internal/snapshot"
)

// Backend is the one control-plane surface: everything a caller can ask
// a controller to do, whether the controller is an in-process engine
// (*Server) or a remote one over TCP (*Client, which may be talking to
// an engine or to a shard gateway). updatectl, loadgen, and the
// gateway's fan-out program against this interface. The gateway itself
// (shard.Gateway) is not a Backend: it implements only a
// WireServer.Handle function over a set of Backends, one per shard.
//
// Typed methods map refusals to the protocol's typed errors
// (OverloadError, NotLeaderError). Do is the raw escape hatch: it
// returns the Response as-is — refusals come back OK=false with the
// structured rejection payloads intact, and transport failures are
// folded into the same shape — which is what a router fanning in
// per-shard answers needs.
type Backend interface {
	Ping() error
	Features() ([]string, error)
	Submit(event EventSpec) (int64, error)
	SubmitBatch(events []EventSpec) ([]SubmitVerdict, *OverloadInfo, error)
	Status(eventID int64) (EventStatus, error)
	Results() ([]EventStatus, error)
	Stats() (Stats, error)
	Fault(spec FaultSpec) (FaultResult, error)
	Trace(n int) ([]obs.Record, error)
	Snapshot() (*snapshot.Snapshot, error)
	Do(req Request) Response
	Close() error
}

var (
	_ Backend = (*Server)(nil)
	_ Backend = (*Client)(nil)
)

// Do executes one raw request against the state loop. It is the
// in-process twin of Client.Do: no wire, no codec, same semantics.
func (s *Server) Do(req Request) Response {
	return s.dispatch(req)
}

// Ping checks the server is accepting requests.
func (s *Server) Ping() error {
	resp := s.dispatch(Request{Op: OpPing})
	return respError(OpPing, &resp)
}

// Features reports the optional protocol capabilities the server
// advertises.
func (s *Server) Features() ([]string, error) {
	resp := s.dispatch(Request{Op: OpPing})
	if err := respError(OpPing, &resp); err != nil {
		return nil, err
	}
	return resp.Features, nil
}

// Submit enqueues an update event and returns its ID.
func (s *Server) Submit(event EventSpec) (int64, error) {
	resp := s.dispatch(Request{Op: OpSubmit, Event: &event})
	if err := respError(OpSubmit, &resp); err != nil {
		return 0, err
	}
	return resp.EventID, nil
}

// SubmitBatch submits many events in one request and returns one verdict
// per event, in submission order (see Client.SubmitBatch).
func (s *Server) SubmitBatch(events []EventSpec) ([]SubmitVerdict, *OverloadInfo, error) {
	resp := s.dispatch(Request{Op: OpSubmitBatch, Events: events})
	if err := respError(OpSubmitBatch, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Verdicts) != len(events) {
		return nil, nil, fmt.Errorf("ctl: submit-batch: %d verdicts for %d events", len(resp.Verdicts), len(events))
	}
	return resp.Verdicts, resp.Overload, nil
}

// Status reports one event's scheduling state.
func (s *Server) Status(eventID int64) (EventStatus, error) {
	resp := s.dispatch(Request{Op: OpStatus, EventID: eventID})
	if err := respError(OpStatus, &resp); err != nil {
		return EventStatus{}, err
	}
	if resp.Status == nil {
		return EventStatus{}, fmt.Errorf("ctl: status: empty response")
	}
	return *resp.Status, nil
}

// Results lists all completed events in admission order.
func (s *Server) Results() ([]EventStatus, error) {
	resp := s.dispatch(Request{Op: OpResults})
	if err := respError(OpResults, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Stats reports controller-wide aggregates.
func (s *Server) Stats() (Stats, error) {
	resp := s.dispatch(Request{Op: OpStats})
	if err := respError(OpStats, &resp); err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, fmt.Errorf("ctl: stats: empty response")
	}
	return *resp.Stats, nil
}

// Fault injects a fault into the running schedule.
func (s *Server) Fault(spec FaultSpec) (FaultResult, error) {
	resp := s.dispatch(Request{Op: OpFault, Fault: &spec})
	if err := respError(OpFault, &resp); err != nil {
		return FaultResult{}, err
	}
	if resp.Fault == nil {
		return FaultResult{}, fmt.Errorf("ctl: fault: empty response")
	}
	return *resp.Fault, nil
}

// Trace fetches the most recent n scheduling-trace records (oldest
// first); n <= 0 fetches everything the ring retains.
func (s *Server) Trace(n int) ([]obs.Record, error) {
	resp := s.dispatch(Request{Op: OpTrace, N: n})
	if err := respError(OpTrace, &resp); err != nil {
		return nil, err
	}
	return resp.Trace, nil
}

// Snapshot captures the full network state.
func (s *Server) Snapshot() (*snapshot.Snapshot, error) {
	resp := s.dispatch(Request{Op: OpSnapshot})
	if err := respError(OpSnapshot, &resp); err != nil {
		return nil, err
	}
	if resp.Snapshot == nil {
		return nil, fmt.Errorf("ctl: snapshot: empty response")
	}
	return resp.Snapshot, nil
}
