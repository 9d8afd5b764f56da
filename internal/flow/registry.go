package flow

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// Registry errors.
var (
	// ErrUnknownFlow is returned for IDs that were never registered or
	// were already removed.
	ErrUnknownFlow = errors.New("unknown flow")
	// ErrAlreadyPlaced is returned when binding a path to a flow that
	// already holds one.
	ErrAlreadyPlaced = errors.New("flow already placed")
	// ErrNotPlaced is returned when unbinding a flow that holds no path.
	ErrNotPlaced = errors.New("flow not placed")
)

// Registry owns all live flows and maintains the inverted index from links
// to the flows traversing them. It performs no bandwidth accounting — that
// stays in topology.Graph; netstate.Network keeps the two consistent.
type Registry struct {
	next  ID
	flows map[ID]*Flow
	// onLink indexes flows by every link of their placed path.
	onLink map[topology.LinkID]map[ID]*Flow

	// seq counts changes: every Add, Bind, Unbind and Remove bumps it by
	// one, and so does a wholesale copy (Fork, or SyncFrom on a fork).
	seq uint64
	// journal is a ring of the flows touched by recent changes: the
	// change minted at seq v sits at journal[(v-1)%journalCap]. It backs
	// AppendChangesSince, which lets forks resync by replaying only the
	// flows that changed. Allocated lazily on the first recorded change;
	// never on forks, which churn at the hottest rate in the system and
	// which nobody syncs from.
	journal []ID
	// journalLo is the smallest seq still retained in the ring.
	journalLo uint64

	// origin is the registry this fork was forked or last synced from
	// (nil unless this is a fork), and syncSeq origin's seq then.
	origin  *Registry
	syncSeq uint64
	// dirty holds the IDs of the flows this fork changed since then. It
	// stops growing at journalCap entries, and a full set makes the next
	// SyncFrom clone in full.
	dirty map[ID]struct{}
	// changes is SyncFrom's reused buffer for reading origin's journal.
	changes []ID
}

// journalCap bounds the change journal and a fork's dirty set. A
// scheduler round commits one event, changing a few dozen flows, so
// 4096 changes of history is far more than the gap between resyncs;
// a fork that falls further behind takes the full-clone path.
const journalCap = 4096

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		flows:  make(map[ID]*Flow),
		onLink: make(map[topology.LinkID]map[ID]*Flow),
	}
}

// Add registers a new, unplaced flow built from spec and returns it.
func (r *Registry) Add(spec Spec) (*Flow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f := &Flow{
		ID:     r.next,
		Src:    spec.Src,
		Dst:    spec.Dst,
		Demand: spec.Demand,
		Size:   spec.Size,
		Event:  spec.Event,
	}
	r.next++
	r.flows[f.ID] = f
	r.record(f.ID)
	return f, nil
}

// Get returns the flow with the given ID.
func (r *Registry) Get(id ID) (*Flow, error) {
	f, ok := r.flows[id]
	if !ok {
		return nil, fmt.Errorf("flow %d: %w", int64(id), ErrUnknownFlow)
	}
	return f, nil
}

// NextID returns the ID the next Add will assign.
func (r *Registry) NextID() ID { return r.next }

// Len returns the number of registered flows (placed or not).
func (r *Registry) Len() int { return len(r.flows) }

// Bind records that f now routes over path, updating the link index.
// The caller is responsible for having reserved bandwidth first.
func (r *Registry) Bind(f *Flow, path routing.Path) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("bind %v: %w", f, ErrUnknownFlow)
	}
	if f.placed {
		return fmt.Errorf("bind %v: %w", f, ErrAlreadyPlaced)
	}
	f.path = path
	f.placed = true
	r.index(f)
	r.record(f.ID)
	return nil
}

// Unbind removes f's path binding, updating the link index. The caller is
// responsible for releasing the bandwidth reservations.
func (r *Registry) Unbind(f *Flow) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("unbind %v: %w", f, ErrUnknownFlow)
	}
	if !f.placed {
		return fmt.Errorf("unbind %v: %w", f, ErrNotPlaced)
	}
	r.unindex(f)
	f.path = routing.Path{}
	f.placed = false
	r.record(f.ID)
	return nil
}

// Remove deletes the flow from the registry entirely. Placed flows are
// unbound first.
func (r *Registry) Remove(f *Flow) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("remove %v: %w", f, ErrUnknownFlow)
	}
	if f.placed {
		if err := r.Unbind(f); err != nil {
			return err
		}
	}
	delete(r.flows, f.ID)
	r.record(f.ID)
	return nil
}

// index adds f to the link index under every link of its path.
func (r *Registry) index(f *Flow) {
	for _, l := range f.path.Links() {
		m := r.onLink[l]
		if m == nil {
			m = make(map[ID]*Flow)
			r.onLink[l] = m
		}
		m[f.ID] = f
	}
}

// unindex removes f from the link index under every link of its path.
func (r *Registry) unindex(f *Flow) {
	for _, l := range f.path.Links() {
		delete(r.onLink[l], f.ID)
		if len(r.onLink[l]) == 0 {
			delete(r.onLink, l)
		}
	}
}

// record notes that flow id just changed: in the journal ring, or on a
// fork in its dirty set.
func (r *Registry) record(id ID) {
	r.seq++
	if r.origin != nil {
		if len(r.dirty) < journalCap {
			r.dirty[id] = struct{}{}
		}
		return
	}
	if r.journal == nil {
		r.journal = make([]ID, journalCap)
		r.journalLo = r.seq
	}
	r.journal[(r.seq-1)%journalCap] = id
	if r.seq-r.journalLo >= journalCap {
		r.journalLo = r.seq - journalCap + 1
	}
}

// AppendChangesSince appends to buf the ID of every flow changed after
// change count since (one entry per change, so a flow changed k times
// appears k times) and reports whether the journal covered the whole
// gap. A false return means history was lost — since is too old, or
// journaling is off (forks) — and the caller must treat every flow as
// changed. since >= the current count trivially succeeds with no
// appends.
func (r *Registry) AppendChangesSince(buf []ID, since uint64) ([]ID, bool) {
	if since >= r.seq {
		return buf, true
	}
	if r.origin != nil || r.journal == nil || since+1 < r.journalLo {
		return buf, false
	}
	for v := since + 1; v <= r.seq; v++ {
		buf = append(buf, r.journal[(v-1)%journalCap])
	}
	return buf, true
}

// Fork returns a scratch copy of the registry for trial planning: every
// flow is cloned (so Bind/Unbind on the fork never mutate the parent's
// flows) and the link index is rebuilt over the clones. Paths are shared:
// a Path's link slice is never mutated in place, only replaced. The ID
// counter is carried over so fork-minted IDs stay in the parent's ID
// order.
func (r *Registry) Fork() *Registry {
	nr := &Registry{}
	nr.cloneFrom(r)
	return nr
}

// SyncFrom brings a fork back to src's state: afterwards r equals a
// fresh src.Fork() — same flows by ID (fields, path, placement), same
// link index, same next ID — whatever r did since it last matched.
//
// The work is proportional to the flows that changed, not to the flows
// registered: r replays the IDs src journaled since r's last sync
// together with the IDs r itself changed, copying each such flow from
// src (or deleting it) and patching the link index. It falls back to a
// full clone when r was never forked or synced from src, when src's
// journal no longer covers the gap, or when r changed journalCap flows
// or more.
func (r *Registry) SyncFrom(src *Registry) {
	if r.origin != src || len(r.dirty) >= journalCap {
		r.cloneFrom(src)
		return
	}
	changes, ok := src.AppendChangesSince(r.changes[:0], r.syncSeq)
	r.changes = changes[:0]
	if !ok {
		r.cloneFrom(src)
		return
	}
	for _, id := range changes {
		r.dirty[id] = struct{}{}
	}
	for id := range r.dirty {
		r.syncFlow(src, id)
	}
	clear(r.dirty)
	r.next = src.next
	r.syncSeq = src.seq
	r.seq++
}

// syncFlow makes r's copy of flow id match src's.
func (r *Registry) syncFlow(src *Registry, id ID) {
	sf, f := src.flows[id], r.flows[id]
	switch {
	case sf == nil:
		if f != nil {
			r.unindex(f)
			delete(r.flows, id)
		}
		return
	case f == nil:
		f = new(Flow)
		r.flows[id] = f
	case f.placed == sf.placed && f.path.Equal(sf.path):
		*f = *sf // the link index already holds f under these links
		return
	default:
		r.unindex(f)
	}
	*f = *sf
	r.index(f)
}

// cloneFrom replaces r's state with a full copy of src's and makes r a
// fork of src.
func (r *Registry) cloneFrom(src *Registry) {
	r.next = src.next
	r.flows = make(map[ID]*Flow, len(src.flows))
	r.onLink = make(map[topology.LinkID]map[ID]*Flow, len(src.onLink))
	for id, f := range src.flows {
		cp := *f
		r.flows[id] = &cp
	}
	for l, m := range src.onLink {
		nm := make(map[ID]*Flow, len(m))
		for id := range m {
			nm[id] = r.flows[id]
		}
		r.onLink[l] = nm
	}
	r.seq++
	r.journal, r.journalLo = nil, 0
	r.origin, r.syncSeq = src, src.seq
	if r.dirty == nil {
		r.dirty = make(map[ID]struct{})
	}
	clear(r.dirty)
}

// FlowsOn returns the flows currently routed over the given link, sorted
// by ID so that iteration is deterministic. The slice is freshly allocated.
func (r *Registry) FlowsOn(link topology.LinkID) []*Flow {
	m := r.onLink[link]
	if len(m) == 0 {
		return nil
	}
	out := make([]*Flow, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	SortByID(out)
	return out
}

// NumFlowsOn returns how many flows traverse the given link.
func (r *Registry) NumFlowsOn(link topology.LinkID) int {
	return len(r.onLink[link])
}

// All returns every registered flow sorted by ID.
func (r *Registry) All() []*Flow {
	out := make([]*Flow, 0, len(r.flows))
	for _, f := range r.flows {
		out = append(out, f)
	}
	SortByID(out)
	return out
}

// Placed returns every placed flow sorted by ID.
func (r *Registry) Placed() []*Flow {
	out := make([]*Flow, 0, len(r.flows))
	for _, f := range r.flows {
		if f.placed {
			out = append(out, f)
		}
	}
	SortByID(out)
	return out
}

// SortByID sorts flows by ID, the registry's deterministic iteration
// order (IDs are unique, so the order is total).
func SortByID(fs []*Flow) {
	slices.SortFunc(fs, func(a, b *Flow) int { return cmp.Compare(a.ID, b.ID) })
}
