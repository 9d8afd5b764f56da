package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs; +Inf
// samples sort last. It is 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailMean is the mean of the largest share of xs (at least one sample).
// Unlike a high percentile of a quantized quantity, it moves with every
// sample in the tail.
func tailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := max(int(math.Ceil(share*float64(len(s)))), 1)
	return mean(s[len(s)-n:])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memPeak samples, every memSampleEvery until stop, the memory the Go
// runtime holds from the operating system: all it has mapped less the
// heap pages it has handed back. The process's peak resident set would
// be the largest value over the whole run, one extreme that moved with
// the garbage collector's timing; a run reports instead the median of its
// parts' peaks.
type memPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const memSampleEvery = 5 * time.Millisecond

var memSamples = []rtmetrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func startMemPeak() *memPeak {
	m := &memPeak{done: make(chan struct{})}
	m.sample()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memPeak) sample() {
	s := append([]rtmetrics.Sample(nil), memSamples...)
	rtmetrics.Read(s)
	if held := s[0].Value.Uint64() - s[1].Value.Uint64(); held > m.peak {
		m.peak = held
	}
}

// stop ends the sampling and returns the peak in MB.
func (m *memPeak) stop() float64 {
	close(m.done)
	m.wg.Wait()
	m.sample()
	return float64(m.peak) / (1 << 20)
}

var inf = math.Inf(1)

// quartiles are the first quartile, median and third quartile of xs,
// computed as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), so they match figures computed with it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
