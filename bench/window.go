package main

import (
	"sort"
	"time"
)

// A 2-vCPU guest of a shared machine changes speed within a second: a
// fixed CPU loop on one took 0.10 s in most half-seconds and 0.15 s in
// about a quarter of them. So the window is cut into
// slices and each metric is the median over slices, the typical
// half-second rather than the average of fast and slow ones.
const (
	slice = 500 * time.Millisecond // goodput, CPU and p50 slices
	chunk = 1000                   // latencies per percentile chunk: 10 beyond p99
)

// sample is one reading of the server process.
type sample struct {
	at    time.Time
	ticks int64   // user+system CPU, clock ticks
	rssMB float64 // VmRSS
}

// sampler reads the server's CPU time and resident set every slice
// until stopped.
type sampler struct {
	p       *serverProc
	samples []sample
	err     error
	stop    chan struct{}
	done    chan struct{}
}

func startSampler(p *serverProc) *sampler {
	s := &sampler{p: p, stop: make(chan struct{}), done: make(chan struct{})}
	s.read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(slice)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

func (s *sampler) read() {
	if s.err != nil {
		return
	}
	at := time.Now()
	ticks, err := s.p.cpuTicks()
	if err != nil {
		s.err = err
		return
	}
	rss, err := s.p.rssMB()
	if err != nil {
		s.err = err
		return
	}
	s.samples = append(s.samples, sample{at, ticks, rss})
}

// finish stops the sampler and takes a last reading.
func (s *sampler) finish() ([]sample, error) {
	close(s.stop)
	<-s.done
	s.read()
	return s.samples, s.err
}

// windowStats are the end-to-end readings of one window.
type windowStats struct {
	goodput  float64       // ok jobs per second, median over slices
	cpuPerOp time.Duration // median over slices
	p50      time.Duration // median over slices of each slice's p50
	p99      time.Duration // median over chunks of each chunk's p99
	rssMB    float64       // at the end of the window
	samples  int           // latencies of clean operations
	chunks   int
	slices   int
}

// measure computes a window's readings from its completions (in
// completion order) and the server samples taken while it ran. A
// slice is the span between two samples; the p99 is taken over chunks
// of consecutive latencies instead, since a slice of a slow workload
// holds too few to leave ten beyond its p99.
func measure(win tally, samples []sample) windowStats {
	var st windowStats
	var rates, cpu, p50s []float64
	next := 0 // first completion not yet in a slice
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		end := b.at.Sub(win.start)
		var ok int64
		var lat []time.Duration
		for ; next < len(win.done) && win.done[next].at < end; next++ {
			c := win.done[next]
			ok += int64(c.ok)
			if c.clean {
				lat = append(lat, c.lat)
			}
		}
		if b.at.Sub(a.at) < slice/2 {
			continue
		}
		rates = append(rates, float64(ok)/b.at.Sub(a.at).Seconds())
		if ok > 0 {
			cpu = append(cpu, float64(b.ticks-a.ticks)*float64(clockTick)/float64(ok))
		}
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p50s = append(p50s, float64(percentile(lat, 50)))
		}
	}
	st.slices = len(rates)
	st.goodput = median(rates)
	st.cpuPerOp = time.Duration(median(cpu))
	st.p50 = time.Duration(median(p50s))
	if len(samples) > 0 {
		st.rssMB = samples[len(samples)-1].rssMB
	}

	var lat []time.Duration
	for _, c := range win.done {
		if c.clean {
			lat = append(lat, c.lat)
		}
	}
	st.samples = len(lat)
	var p99s []float64
	for lo := 0; lo < len(lat); lo += chunk {
		hi := lo + chunk
		if hi > len(lat) {
			if lo > 0 {
				break // a partial last chunk has too few samples for its p99
			}
			hi = len(lat)
		}
		c := append([]time.Duration(nil), lat[lo:hi]...)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		p99s = append(p99s, float64(percentile(c, 99)))
	}
	st.chunks = len(p99s)
	st.p99 = time.Duration(median(p99s))
	return st
}
