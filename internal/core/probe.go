package core

import (
	"container/heap"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/topology"
)

// ProbeStats counts the work a ProbeEngine performed.
type ProbeStats struct {
	// Hits and Misses count probe requests answered from the epoch cache
	// versus freshly planned.
	Hits   int
	Misses int
	// Cold and Incremental split Misses by cause: Cold counts probes of
	// events never cached (or probed live in data-plane mode), while
	// Incremental counts re-plans of events whose cached estimate was
	// invalidated by a link change. Misses == Cold + Incremental always.
	Cold        int
	Incremental int
	// JournalMisses counts refreshes where the graph's change journal no
	// longer covered the gap since the last scan, forcing the engine to
	// treat every cached entry as potentially dirty.
	JournalMisses int
	// Forks counts fork lanes created; Resyncs counts times an existing
	// lane was refreshed from live state.
	Forks   int
	Resyncs int
	// ProbeTime is the wall-clock time spent inside ProbeAll.
	ProbeTime time.Duration
}

// DirtyObserver receives the number of distinct dirty links each time
// the engine consumes a batch of journaled changes. obs.Histogram
// satisfies it; the indirection keeps core free of the obs package.
type DirtyObserver interface {
	Observe(v int64)
}

// HitRate returns Hits / (Hits + Misses), 0 when no probes ran.
func (s ProbeStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// forkLane is one worker's scratch network plus the planner bound to it.
type forkLane struct {
	net     *netstate.Network
	planner *Planner
}

// probeEntry is one cached cost estimate together with its validity
// condition: the deduplicated set of links the probe read and the highest
// link version among them at probe time. Because link versions are minted
// from a single graph-wide epoch, any later change to any of these links
// strictly raises the set's max version, so "max unchanged" proves "all
// unchanged".
//
// Fully-admittable entries under the hash policy additionally carry need:
// for each desired-path link, the total demand the event's flows place on
// it. It backs the headroom revalidation of ProbeEngine.revalidate (nil
// when unavailable). cleanEvals is the planning work an all-fast-path
// replay would report, so headroom hits can account Evals faithfully.
// Each entry also carries the bookkeeping of the engine's incremental
// indexes: valid is the dirty bit maintained from the graph's change
// journal (true means no link of the read set changed since the entry
// was stamped, so the cached estimate is current without any check);
// gen is bumped whenever the entry's cost may have changed, lazily
// invalidating min-cost heap nodes that reference an older gen.
type probeEntry struct {
	id         flow.EventID
	est        Estimate
	links      []topology.LinkID
	maxVersion uint64
	need       map[topology.LinkID]topology.Bandwidth
	cleanEvals int

	valid bool
	gen   uint64
}

// ProbeEngine answers event cost probes (Planner.Probe) for schedulers,
// adding two optimizations over probing the live network directly:
//
//   - Parallelism: cache misses fan out over a bounded pool of fork lanes
//     (Network.Fork scratch copies), so the α+1 probes of an LMTF round
//     run concurrently instead of serially. Forks are probe-only; the
//     live network is never written, which is why probing in parallel
//     preserves the exact estimates (and therefore decisions) of serial
//     probing.
//   - Epoch caching: each fresh estimate is stored with the link set the
//     plan read and those links' max version. A later probe of the same
//     event whose links are all unchanged returns the cached estimate
//     with zero planning work — common across scheduling rounds, because
//     committing one event perturbs only a few links of a large fabric.
//
// When the live network has a data plane attached, fork probing and
// caching are both disabled (rule-table state is neither forked nor
// covered by link versions) and the engine degrades to serial probes on
// the live network — exactly the pre-engine behavior.
//
// A ProbeEngine is bound to one Planner and must be used from a single
// goroutine; the parallelism is internal.
type ProbeEngine struct {
	planner *Planner
	workers int

	lanes       []*forkLane
	syncedEpoch uint64
	synced      bool

	cache map[flow.EventID]*probeEntry
	stats ProbeStats

	// byLink is the reverse index read-set link -> cached entries, used
	// by refresh to dirty exactly the entries a journaled change hits.
	byLink map[topology.LinkID]map[*probeEntry]struct{}
	// scanEpoch is the graph epoch up to which journaled changes have
	// been consumed; every cached entry's valid bit is accurate as of it.
	scanEpoch uint64
	// minHeap orders heap nodes over cached entries by (cost, event ID)
	// with lazy invalidation: stale nodes (gen mismatch) are discarded
	// on pop. dirtyScratch is the reused buffer for journal reads.
	minHeap      costHeap
	dirtyScratch []topology.LinkID
	dirtyObs     DirtyObserver
}

// costNode is one lazy min-cost heap node. It is stale — skipped on
// pop — once gen no longer matches entry.gen (the entry was dirtied,
// resurrected at a different cost, replaced, or forgotten).
type costNode struct {
	cost  topology.Bandwidth
	id    flow.EventID
	entry *probeEntry
	gen   uint64
}

// costHeap implements container/heap ordered by (cost, event ID); the
// ID tie-break keeps CheapestValid deterministic across probe modes.
type costHeap []costNode

func (h costHeap) Len() int { return len(h) }
func (h costHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].id < h[j].id
}
func (h costHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)   { *h = append(*h, x.(costNode)) }
func (h *costHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewProbeEngine returns an engine over the given planner with the given
// worker count. workers <= 0 selects GOMAXPROCS; workers == 1 probes
// serially (but still on a fork, and still cached).
func NewProbeEngine(planner *Planner, workers int) *ProbeEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ProbeEngine{
		planner: planner,
		workers: workers,
		cache:   make(map[flow.EventID]*probeEntry),
		byLink:  make(map[topology.LinkID]map[*probeEntry]struct{}),
	}
}

// SetDirtyObserver installs o to receive the distinct-dirty-link count
// of each consumed journal batch (nil disables). Typically an
// obs.Histogram feeding the netupdate_probe_dirty_links metric.
func (pe *ProbeEngine) SetDirtyObserver(o DirtyObserver) { pe.dirtyObs = o }

// Planner returns the live planner the engine probes on behalf of.
func (pe *ProbeEngine) Planner() *Planner { return pe.planner }

// Workers returns the configured probe concurrency.
func (pe *ProbeEngine) Workers() int { return pe.workers }

// Stats returns a snapshot of the engine's counters.
func (pe *ProbeEngine) Stats() ProbeStats { return pe.stats }

// Forget drops the cached estimate for an event. Call after the event
// executes: it will never be probed again, and its entry would otherwise
// linger for the life of the engine.
func (pe *ProbeEngine) Forget(id flow.EventID) {
	if e, ok := pe.cache[id]; ok {
		pe.dropEntry(e)
		delete(pe.cache, id)
	}
}

// dropEntry unlinks an entry from the reverse index and bumps its gen so
// any heap nodes referencing it are discarded on pop. The cache map
// itself is the caller's to update.
func (pe *ProbeEngine) dropEntry(e *probeEntry) {
	for _, l := range e.links {
		if set, ok := pe.byLink[l]; ok {
			delete(set, e)
			if len(set) == 0 {
				delete(pe.byLink, l)
			}
		}
	}
	e.valid = false
	e.gen++
}

// markValid flips a resurrected entry back to valid and indexes its
// (possibly refreshed) cost in the min-cost heap.
func (pe *ProbeEngine) markValid(e *probeEntry) {
	e.valid = true
	e.gen++
	pe.pushNode(e)
}

// pushNode records the entry's current cost in the lazy heap, compacting
// stale nodes when they outnumber live entries by too much.
func (pe *ProbeEngine) pushNode(e *probeEntry) {
	heap.Push(&pe.minHeap, costNode{cost: e.est.Cost, id: e.id, entry: e, gen: e.gen})
	if len(pe.minHeap) > 4*len(pe.cache)+64 {
		live := pe.minHeap[:0]
		for _, n := range pe.minHeap {
			if n.gen == n.entry.gen {
				live = append(live, n)
			}
		}
		pe.minHeap = live
		heap.Init(&pe.minHeap)
	}
}

// refresh consumes the graph's change journal since the last scan,
// marking dirty exactly the cached entries whose read sets intersect the
// changed links. When the journal cannot cover the gap (the engine fell
// more than journalCap epochs behind, or the graph was synced wholesale)
// every entry is conservatively marked dirty — recovering the pre-index
// behavior of revalidating each entry at its next probe.
func (pe *ProbeEngine) refresh(g *topology.Graph) {
	epoch := g.Epoch()
	if epoch == pe.scanEpoch {
		return
	}
	if len(pe.cache) == 0 {
		// Nothing to dirty; just fast-forward past the gap (background
		// fill alone can burn thousands of epochs before the first probe).
		pe.scanEpoch = epoch
		return
	}
	changes, ok := g.AppendChangesSince(pe.dirtyScratch[:0], pe.scanEpoch)
	pe.dirtyScratch = changes[:0]
	if !ok {
		pe.stats.JournalMisses++
		for _, e := range pe.cache {
			if e.valid {
				e.valid = false
				e.gen++
			}
		}
		pe.scanEpoch = epoch
		return
	}
	changes = dedupLinks(changes)
	for _, l := range changes {
		for e := range pe.byLink[l] {
			if e.valid {
				e.valid = false
				e.gen++
			}
		}
	}
	if pe.dirtyObs != nil && len(changes) > 0 {
		pe.dirtyObs.Observe(int64(len(changes)))
	}
	pe.scanEpoch = epoch
}

// Probe estimates one event's current update cost; see ProbeAll.
func (pe *ProbeEngine) Probe(ev *Event) (*Estimate, error) {
	ests, err := pe.ProbeAll([]*Event{ev})
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// ProbeAll estimates the current update cost of every event, returning
// estimates in input order. Cache hits report the Evals a fresh probe
// would have performed (so simulated plan-time accounting is unchanged by
// caching) while doing none of that work for real; misses report the full
// planning cost, exactly as Planner.Probe would. The live network is
// never modified, and the results are independent of the worker count.
func (pe *ProbeEngine) ProbeAll(evs []*Event) ([]*Estimate, error) {
	start := time.Now()
	defer func() { pe.stats.ProbeTime += time.Since(start) }()

	out := make([]*Estimate, len(evs))
	live := pe.planner.Network()
	if live.DataPlane() != nil {
		// Rule-table admission constraints are not captured by forks or
		// link versions; stay faithful by probing live, serially.
		for i, ev := range evs {
			est, err := pe.planner.Probe(ev)
			if err != nil {
				return nil, err
			}
			out[i] = est
			pe.stats.Misses++
			pe.stats.Cold++
		}
		return out, nil
	}

	g := live.Graph()
	pe.refresh(g)
	var misses []int
	for i, ev := range evs {
		entry, ok := pe.cache[ev.ID]
		if ok && (entry.valid || pe.revalidate(g, entry)) {
			// Replanning is guaranteed to reproduce the cached estimate,
			// so skip it. Evals reports the work that hypothetical replan
			// would have performed — not the (zero) work actually done —
			// so simulated plan-time accounting is identical with and
			// without the cache; only real wall-time changes.
			//
			// A valid entry (no read-set link changed since the last
			// journal scan) hits with zero checks; a dirty one falls back
			// to revalidate, whose success resurrects it into the valid
			// set and re-indexes its cost.
			if !entry.valid {
				pe.markValid(entry)
			}
			out[i] = &Estimate{
				Cost:       entry.est.Cost,
				Feasible:   entry.est.Feasible,
				Admittable: entry.est.Admittable,
				Evals:      entry.est.Evals,
				FromCache:  true,
			}
			pe.stats.Hits++
			continue
		}
		if ok {
			pe.stats.Incremental++
		} else {
			pe.stats.Cold++
		}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		return out, nil
	}
	pe.stats.Misses += len(misses)

	lanes := pe.ensureLanes(min(pe.workers, len(misses)))
	results := make([]*ExecResult, len(evs))
	errs := make([]error, len(evs))
	if len(lanes) == 1 {
		for _, i := range misses {
			results[i], errs[i] = lanes[0].planner.run(evs[i], false)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for w := range lanes {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(misses); j += len(lanes) {
					i := misses[j]
					results[i], errs[i] = lanes[w].planner.run(evs[i], false)
					if errs[i] != nil {
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for _, i := range misses {
		if errs[i] != nil {
			// A failed probe may leave its lane only partially rolled
			// back in theory; force a resync before the pool is reused.
			pe.synced = false
			return nil, fmt.Errorf("probe %v: %w", evs[i], errs[i])
		}
	}

	// Record fresh entries against live link versions. The live graph is
	// unchanged since the cache check above (probes only write forks), so
	// these versions describe exactly the state the estimates were
	// computed against.
	hashDesired := pe.planner.mig.DesiredPolicy() == migration.DesiredHash
	for _, i := range misses {
		res := results[i]
		if res == nil {
			continue // event skipped by an error path that didn't set errs
		}
		out[i] = res.estimate()
		links := dedupLinks(out[i].Touched)
		if old, ok := pe.cache[evs[i].ID]; ok {
			pe.dropEntry(old)
		}
		entry := &probeEntry{
			id:         evs[i].ID,
			est:        *out[i],
			links:      links,
			maxVersion: g.MaxVersion(links),
			valid:      true,
			gen:        1,
		}
		if hashDesired && res.Failed == 0 {
			// Every flow landed on its hash-pinned desired path (the slow
			// path places on the desired path too, after migrations).
			// Record how much the event loads each of those links;
			// revalidate re-admits by headroom instead of replanning.
			entry.need = make(map[topology.LinkID]topology.Bandwidth)
			for _, adm := range res.Admitted {
				for _, l := range adm.Path.Links() {
					entry.need[l] += adm.Flow.Demand
				}
				// An all-fast-path replay evaluates each flow's candidate
				// set once (candidate sets are static topology).
				entry.cleanEvals += len(live.Candidates(adm.Flow))
			}
		}
		pe.cache[evs[i].ID] = entry
		for _, l := range links {
			set, ok := pe.byLink[l]
			if !ok {
				set = make(map[*probeEntry]struct{})
				pe.byLink[l] = set
			}
			set[entry] = struct{}{}
		}
		pe.pushNode(entry)
	}
	return out, nil
}

// CheapestValid returns the event ID and cost of the cheapest currently
// valid cached estimate, ordered by (cost, event ID). ok is false when
// no valid entry exists — nothing probed yet, everything dirtied, or the
// engine is in data-plane (cacheless) mode. The caller typically runs
// ProbeAll over its candidate set first, which validates every entry it
// can and replans the rest, making the subsequent pop authoritative for
// that set.
func (pe *ProbeEngine) CheapestValid() (flow.EventID, topology.Bandwidth, bool) {
	live := pe.planner.Network()
	if live.DataPlane() != nil {
		return 0, 0, false
	}
	pe.refresh(live.Graph())
	for len(pe.minHeap) > 0 {
		n := pe.minHeap[0]
		if n.gen == n.entry.gen && n.entry.valid && pe.cache[n.id] == n.entry {
			return n.id, n.cost, true
		}
		heap.Pop(&pe.minHeap)
	}
	return 0, 0, false
}

// revalidate reports whether a cached estimate still equals what a fresh
// probe would return, by two sound checks in increasing looseness:
//
//  1. Version check: no link of the read set changed since the probe
//     (max version unchanged) — the replan reads exactly the same state.
//  2. Headroom check, for fully-admittable entries under the hash policy:
//     desired paths are hash-selected from each flow's immutable
//     identity, so a replay re-picks exactly the same paths, and it
//     fast-paths all of them iff every desired-path link retains
//     residual >= the demand the event puts on it — which is what need
//     records. When headroom holds the replay's outcome is known without
//     running it: {cost 0, feasible, all admittable}, regardless of what
//     the original probe measured (an entry probed during congestion is
//     thereby "resurrected" once departures free its desired paths).
//     Residuals elsewhere in the read set are irrelevant. Without this
//     check the cache is structurally useless on fat-trees: every
//     inter-pod candidate set crosses the core layer, so any commit
//     anywhere bumps some version in almost every read set.
//
// A successful headroom check refreshes the version stamp, re-anchoring
// the cheap check-1 at the current state.
func (pe *ProbeEngine) revalidate(g *topology.Graph, e *probeEntry) bool {
	max := g.MaxVersion(e.links)
	if max <= e.maxVersion {
		return true
	}
	if e.need == nil {
		return false
	}
	for id, need := range e.need {
		if g.Link(id).Residual() < need {
			return false
		}
	}
	// A replay right now fast-paths every flow: zero cost, and exactly
	// one candidate-set evaluation of planning work per flow.
	e.est.Cost = 0
	e.est.Evals = e.cleanEvals
	e.maxVersion = max
	return true
}

// ensureLanes returns n ready fork lanes, creating or resyncing them so
// each one mirrors the live network's current state. Lanes left behind by
// a previous round need a resync only when the live epoch moved: probes
// roll themselves back, so an un-moved live network means every lane
// still matches it exactly.
func (pe *ProbeEngine) ensureLanes(n int) []*forkLane {
	live := pe.planner.Network()
	epoch := live.Graph().Epoch()
	if !pe.synced || pe.syncedEpoch != epoch {
		// Refresh every existing lane, not just the first n: a stale lane
		// handed out later would silently probe against old state.
		for _, lane := range pe.lanes {
			lane.net.SyncFrom(live)
			pe.stats.Resyncs++
		}
	}
	for len(pe.lanes) < n {
		fnet := live.Fork() // a fresh fork is in sync by construction
		fmig := pe.planner.mig.CloneFor(fnet)
		fmig.SetTrackTouched(true)
		pe.lanes = append(pe.lanes, &forkLane{
			net:     fnet,
			planner: NewPlanner(fmig, pe.planner.policy),
		})
		pe.stats.Forks++
	}
	pe.synced = true
	pe.syncedEpoch = epoch
	return pe.lanes[:n]
}

// dedupLinks sorts and deduplicates a touched-link list in place.
func dedupLinks(links []topology.LinkID) []topology.LinkID {
	slices.Sort(links)
	return slices.Compact(links)
}
