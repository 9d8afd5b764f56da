package main

import (
	"math/rand"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
)

// inputSeed derives the input generator's seed from the run seed, so the
// event stream and the world's own seeded state (background fill,
// scheduler sampling) never share a random stream.
func inputSeed(seed int64) int64 { return seed*7919 + 104729 }

// batch is one submit-batch request of a workload. Due is its scheduled
// send time as an offset from the start of the load; every event in the
// batch is timed from it.
type batch struct {
	Due    time.Duration
	Events []ctl.EventSpec
}

// steadyInputs draws the open-loop schedule of steady-k4 and durable-k4:
// Poisson arrivals at rate events/s for window, each event 1-4 flows of
// 5 Mbps between distinct hosts, grouped into batches of batchSize
// consecutive arrivals. A batch is due when its last event arrives.
func steadyInputs(seed int64, hosts []topology.NodeID, rate float64, window time.Duration, batchSize int) []batch {
	rng := rand.New(rand.NewSource(inputSeed(seed)))
	var out []batch
	var cur batch
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > window {
			break
		}
		n := 1 + rng.Intn(4)
		spec := ctl.EventSpec{Kind: "bench"}
		for i := 0; i < n; i++ {
			src, dst := distinctPair(rng, hosts)
			spec.Flows = append(spec.Flows, ctl.FlowSpec{Src: int(src), Dst: int(dst), DemandBps: 5e6})
		}
		cur.Events = append(cur.Events, spec)
		cur.Due = at
		if len(cur.Events) == batchSize {
			out = append(out, cur)
			cur = batch{}
		}
	}
	if len(cur.Events) > 0 {
		out = append(out, cur)
	}
	return out
}

// paperBacklog draws drain-k8's backlog: n paper-shaped events of 10-40
// flows with Yahoo-like demands, all due at once, in batches of
// batchSize.
func paperBacklog(seed int64, hosts []topology.NodeID, n, batchSize int) ([]batch, error) {
	gen, err := trace.NewGenerator(inputSeed(seed), trace.YahooLike{}, hosts)
	if err != nil {
		return nil, err
	}
	specs := make([]ctl.EventSpec, n)
	for i, ev := range gen.Events(n, 10, 40) {
		spec := ctl.EventSpec{Kind: "bench", Flows: make([]ctl.FlowSpec, len(ev.Specs))}
		for j, f := range ev.Specs {
			spec.Flows[j] = ctl.FlowSpec{Src: int(f.Src), Dst: int(f.Dst), DemandBps: int64(f.Demand), SizeBytes: f.Size}
		}
		specs[i] = spec
	}
	return chunk(specs, batchSize), nil
}

// podBacklog draws sharded-k8's backlog: n events of 1-4 flows of 5 Mbps.
// With probability localShare an event stays inside one pod (every
// endpoint in the same pod); otherwise its first flow crosses pods.
func podBacklog(seed int64, ft *topology.FatTree, n, batchSize int, localShare float64) []batch {
	rng := rand.New(rand.NewSource(inputSeed(seed)))
	byPod := make([][]topology.NodeID, ft.NumPods())
	for _, h := range ft.Hosts() {
		p := ft.PodOf(h)
		byPod[p] = append(byPod[p], h)
	}
	specs := make([]ctl.EventSpec, n)
	for i := range specs {
		local := rng.Float64() < localShare
		pod := rng.Intn(len(byPod))
		nf := 1 + rng.Intn(4)
		spec := ctl.EventSpec{Kind: "bench"}
		for j := 0; j < nf; j++ {
			var src, dst topology.NodeID
			switch {
			case local:
				src, dst = distinctPair(rng, byPod[pod])
			case j == 0:
				other := (pod + 1 + rng.Intn(len(byPod)-1)) % len(byPod)
				src = byPod[pod][rng.Intn(len(byPod[pod]))]
				dst = byPod[other][rng.Intn(len(byPod[other]))]
			default:
				src, dst = distinctPair(rng, ft.Hosts())
			}
			spec.Flows = append(spec.Flows, ctl.FlowSpec{Src: int(src), Dst: int(dst), DemandBps: 5e6})
		}
		specs[i] = spec
	}
	return chunk(specs, batchSize)
}

// podLocalShare is the fraction of events whose endpoints all sit in one
// pod.
func podLocalShare(ft *topology.FatTree, bs []batch) float64 {
	var local, total int
	for _, b := range bs {
		for _, ev := range b.Events {
			total++
			pod := ft.PodOf(topology.NodeID(ev.Flows[0].Src))
			same := true
			for _, f := range ev.Flows {
				if ft.PodOf(topology.NodeID(f.Src)) != pod || ft.PodOf(topology.NodeID(f.Dst)) != pod {
					same = false
				}
			}
			if same {
				local++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}

func distinctPair(rng *rand.Rand, hosts []topology.NodeID) (topology.NodeID, topology.NodeID) {
	src := hosts[rng.Intn(len(hosts))]
	dst := hosts[rng.Intn(len(hosts))]
	for dst == src {
		dst = hosts[rng.Intn(len(hosts))]
	}
	return src, dst
}

// chunk splits specs into batches of size, all due at offset zero.
func chunk(specs []ctl.EventSpec, size int) []batch {
	var out []batch
	for len(specs) > 0 {
		n := min(size, len(specs))
		out = append(out, batch{Events: specs[:n:n]})
		specs = specs[n:]
	}
	return out
}
