package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/loadgen"
)

// latencyLimit is the p99 due-time latency a capacity probe must meet.
const latencyLimit = 100 * time.Millisecond

// warmupFrac of a launch's schedule is excluded from latency figures:
// arrivals due in the first tenth of the run still count for delivery.
const warmupFrac = 0.1

// launch is one pipeline launch at a fixed offered Poisson rate.
type launch struct {
	res   *core.Result
	setup time.Duration
	// offsets are the schedule offsets of every arrival the producer
	// could have sent, indexed by record ID; the first due of them were
	// due before the production deadline.
	offsets []time.Duration
	due     int
	// allocBytes is the process heap allocation over the launch.
	allocBytes uint64
	check      *checkCodec
}

// launchSpec is everything a launch varies.
type launchSpec struct {
	rate     float64
	seed     int64
	duration time.Duration
	drain    time.Duration
}

// policy is the launch's open-loop arrival process.
func (s launchSpec) policy() loadgen.Policy { return loadgen.Poisson(s.rate, s.seed) }

// runLaunch launches the workload's pipeline once through r and
// returns the measurements. r's Codec is replaced by an output checker
// wrapped around it, so every launch checks predictions.
func runLaunch(r core.Runner, cfg core.Config, s launchSpec, predLen int) (*launch, error) {
	policy := s.policy()
	cfg.Workload.Load = &policy
	cfg.Workload.Duration = s.duration
	cfg.Workload.Seed = s.seed
	cfg.KeepSamples = true
	offsets, due, err := scheduleOffsets(policy, s.duration)
	if err != nil {
		return nil, err
	}
	inner := r.Codec
	if inner == nil {
		inner = core.JSONCodec{}
	}
	check := &checkCodec{BatchCodec: inner, predLen: predLen}
	r.Codec = check
	r.DrainTimeout = s.drain

	before := heapAllocs()
	t0 := time.Now()
	res, err := r.Run(cfg)
	if err != nil {
		return nil, err
	}
	l := &launch{
		res:        res,
		setup:      res.RunStart.Sub(t0),
		offsets:    offsets,
		due:        due,
		allocBytes: heapAllocs() - before,
		check:      check,
	}
	if res.Metrics.Produced > len(offsets) {
		return nil, fmt.Errorf("producer sent %d records, schedule has only %d arrivals before the deadline slack", res.Metrics.Produced, len(offsets))
	}
	return l, nil
}

// scheduleOffsets regenerates the launch's arrival schedule: the
// offsets of every arrival up to one second past the deadline (the
// producer sends at most the first arrival past it), and how many of
// them fall before the deadline.
func scheduleOffsets(p loadgen.Policy, d time.Duration) ([]time.Duration, int, error) {
	s, err := p.Schedule()
	if err != nil {
		return nil, 0, err
	}
	var offs []time.Duration
	due := 0
	for {
		off, _, ok := s.Next()
		if !ok || off >= d+time.Second {
			return offs, due, nil
		}
		if off < d {
			due++
		}
		offs = append(offs, off)
	}
}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// dueTime is the scheduled send time of record id.
func (l *launch) dueTime(id int64) time.Time {
	return l.res.RunStart.Add(l.offsets[id])
}

// warmupEnd is the first record ID whose latency counts.
func (l *launch) warmupEnd() int64 {
	cut := time.Duration(warmupFrac * float64(l.res.Config.Workload.Duration))
	return int64(sort.Search(len(l.offsets), func(i int) bool { return l.offsets[i] >= cut }))
}

// verdict summarises one launch.
type verdict struct {
	due, sent, scored int
	// missing are sent due arrivals with no scored output.
	missing int
	// unsent are arrivals due more than the latency limit before the
	// production deadline that the producer never sent. Arrivals due in
	// the limit's last window may still be unsent when production
	// stops; their lateness is below the limit, and they are not
	// counted as offered.
	unsent int
	// dupes are outputs beyond the first for one ID.
	dupes int
	// offered counts the due arrivals the launch is judged on: those
	// sent, and those the producer should have sent but did not.
	offered int
	// lat are due-time latencies of scored post-warmup due arrivals,
	// sorted. Missing and unsent arrivals are counted above; either
	// fails a probe outright.
	lat []float64
	// wrong counts output-integrity violations: out-of-range IDs,
	// malformed predictions, outputs without predictions.
	wrong int
}

// judge computes the launch's verdict.
func (l *launch) judge() verdict {
	v := verdict{due: l.due, sent: l.res.Metrics.Produced, dupes: l.res.Duplicates}
	grace := l.res.Config.Workload.Duration - latencyLimit
	dueBeforeGrace := sort.Search(l.due, func(i int) bool { return l.offsets[i] >= grace })
	seen := make([]bool, len(l.offsets))
	warm := l.warmupEnd()
	for _, s := range l.res.Samples {
		if s.ID < 0 || s.ID >= int64(v.sent) {
			v.wrong++
			continue
		}
		seen[s.ID] = true
		v.scored++
		if s.ID >= warm && s.ID < int64(l.due) {
			v.lat = append(v.lat, float64(s.End.Sub(l.dueTime(s.ID)))/float64(time.Millisecond))
		}
	}
	for id := 0; id < l.due; id++ {
		if seen[id] {
			continue
		}
		switch {
		case id < v.sent:
			v.missing++
		case id < dueBeforeGrace:
			v.unsent++
		}
	}
	sort.Float64s(v.lat)
	v.offered = min(v.sent, v.due) + v.unsent
	outputs := l.check.outputs.Load()
	if outputs != int64(v.scored+v.dupes+v.wrong) {
		v.wrong++
	}
	v.wrong += int(l.check.bad.Load())
	return v
}

// merge adds another launch's verdict to v (pooling latencies).
func (v *verdict) merge(o verdict) {
	v.due += o.due
	v.sent += o.sent
	v.scored += o.scored
	v.missing += o.missing
	v.unsent += o.unsent
	v.dupes += o.dupes
	v.offered += o.offered
	v.wrong += o.wrong
	v.lat = append(v.lat, o.lat...)
	sort.Float64s(v.lat)
}

// failed counts offered arrivals not scored exactly once.
func (v verdict) failed() int { return v.missing + v.unsent + v.dupes }

// passes applies the capacity-probe rule: every due arrival sent (with
// the grace above), every sent record scored exactly once within the
// drain window, and p99 due-time latency within the limit.
func (v verdict) passes() bool {
	return v.unsent == 0 && v.scored == v.sent && v.dupes == 0 && v.wrong == 0 &&
		len(v.lat) > 0 && quantile(v.lat, 0.99) <= float64(latencyLimit)/float64(time.Millisecond)
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// checkCodec validates every scored output the pipeline decodes: it
// must carry exactly predLen finite predictions. Input records (no
// predictions) pass through unchecked.
type checkCodec struct {
	core.BatchCodec
	predLen int
	outputs atomic.Int64
	bad     atomic.Int64
}

// Unmarshal implements core.BatchCodec.
func (c *checkCodec) Unmarshal(data []byte) (*core.DataBatch, error) {
	b, err := c.BatchCodec.Unmarshal(data)
	if err != nil || len(b.Predictions) == 0 {
		return b, err
	}
	c.outputs.Add(1)
	if len(b.Predictions) != c.predLen {
		c.bad.Add(1)
		return b, nil
	}
	for _, p := range b.Predictions {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			c.bad.Add(1)
			break
		}
	}
	return b, nil
}
