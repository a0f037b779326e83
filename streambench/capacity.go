package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"crayfish/internal/core"
)

// searchSpec sizes the capacity search.
type searchSpec struct {
	// steps is the number of bisection steps; the answer's resolution
	// is (hi/lo)^(1/2^steps).
	steps int
	// probe is a probe's minimum production time, at least 20× the
	// latency limit so queueing delay can grow past the limit within a
	// probe. Probes at low rates last longer: see probeDuration.
	probe time.Duration
	// minArrivals is the number of arrivals a probe schedules at least.
	minArrivals int
	// drain bounds the post-production wait for outputs.
	drain time.Duration
}

// probeOutcome is one capacity probe.
type probeOutcome struct {
	passed bool
	v      verdict
	l      *launch
}

// searchCapacity bisects the workload's rate bracket geometrically for
// the highest offered rate at which a probe passes. A failing probe is
// repeated once, on a fresh schedule, before the bracket moves down, so
// one noisy probe cannot sink the search. If no probe passes the
// answer is the bracket floor, which is reported as such. between runs
// after every bisection step.
func searchCapacity(w workload, seed int64, s searchSpec, predLen int, log io.Writer, between func(step int) error) (float64, []probeOutcome, error) {
	lo, hi := w.lo, w.hi
	var probes []probeOutcome
	probe := func(rate float64) (bool, error) {
		l, err := runLaunch(core.Runner{}, w.config(), launchSpec{
			rate:     rate,
			seed:     subSeed(seed, len(probes)+1),
			duration: s.probeDuration(rate),
			drain:    s.drain,
		}, predLen)
		if err != nil {
			return false, err
		}
		v := l.judge()
		ok := v.passes()
		probes = append(probes, probeOutcome{passed: ok, v: v, l: l})
		fmt.Fprintf(log, "  probe %8.1f ev/s %v: due %d sent %d scored %d dupes %d p99 %.2f ms -> %s\n",
			rate, l.res.Config.Workload.Duration, v.due, v.sent, v.scored, v.dupes, quantile(v.lat, 0.99), passWord(ok))
		return ok, nil
	}
	for i := 0; i < s.steps; i++ {
		mid := math.Sqrt(lo * hi)
		ok, err := probe(mid)
		if err != nil {
			return 0, probes, err
		}
		if !ok {
			if ok, err = probe(mid); err != nil {
				return 0, probes, err
			}
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
		if err := between(i); err != nil {
			return 0, probes, err
		}
	}
	return lo, probes, nil
}

// probeDuration is long enough for minArrivals arrivals at rate, so
// the p99 of a probe rests on at least ten samples beyond it once the
// warm-up tenth is dropped, and never shorter than s.probe.
func (s searchSpec) probeDuration(rate float64) time.Duration {
	d := time.Duration(float64(s.minArrivals) / rate * float64(time.Second))
	return max(d, s.probe)
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// subSeed derives the seed of a run's i-th launch from the run seed
// (splitmix64 finaliser), so every launch draws a distinct schedule and
// data set that is still a pure function of --seed.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
