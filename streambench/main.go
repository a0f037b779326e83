// Command streambench is Crayfish's end-to-end streaming-inference
// benchmark. One invocation runs one workload in-process — producer →
// broker → stream processor → serving → output topic, driven by the
// framework's own open-loop Poisson producer — checks the outputs, and
// prints every metric by name with its unit, then one JSON result line.
//
//	streambench --workload ffnn-embedded --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off: capacity
// under a p99 limit, due-time latency at the nominal rate, set-up time
// and allocation per record. --trace 1 repeats the nominal launch with
// every layer's public entry point wrapped from outside (codec, broker
// transport, engine transform), prints the per-record waterfall and the
// per-layer metrics, and writes the spans to --trace-dir. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/netsim"
	"crayfish/internal/sps"

	// The workloads' engines.
	_ "crayfish/internal/sps/flink"
	_ "crayfish/internal/sps/kstreams"
)

// options sizes one benchmark run.
type options struct {
	// nominal is the total production time at the nominal rate.
	nominal time.Duration
	// nominalDrain bounds its post-production wait.
	nominalDrain time.Duration
	search       searchSpec
	// warmup is the production time of the unmeasured first launch.
	warmup time.Duration
	// forward is the closed-loop model timing budget (traced run).
	forward time.Duration
	// traceDir receives the span file of a traced run; empty skips it.
	traceDir string
}

// defaultOptions sizes a run whose nominal launch lasts seconds.
func defaultOptions(seconds float64) options {
	return options{
		nominal:      time.Duration(seconds * float64(time.Second)),
		nominalDrain: 2 * time.Second,
		search:       searchSpec{steps: 6, probe: 20 * latencyLimit, minArrivals: 1100, drain: 500 * time.Millisecond},
		warmup:       time.Second,
		forward:      time.Second,
	}
}

// outcome is one run's result.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("streambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Int64("seed", 1, "seed of every generated schedule and input")
	seconds := fs.Float64("seconds", 15, "nominal-rate measurement length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "streambench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "streambench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := defaultOptions(*seconds)
	o.traceDir = *traceDir
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", w.name, *seed, *trace)
	var out outcome
	if *trace == 1 {
		out, err = runTraced(w, *seed, o, stdout, stderr)
	} else {
		out, err = runEndToEnd(w, *seed, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "streambench:", err)
		return 1
	}
	if err := writeResult(stdout, out); err != nil {
		fmt.Fprintln(stderr, "streambench:", err)
		return 1
	}
	return 0
}

// predLen is the number of predictions every scored record carries.
func predLen(cfg core.Config) (int, error) {
	m, err := cfg.Model.Build()
	if err != nil {
		return 0, err
	}
	return cfg.Workload.BatchSize * m.OutputSize, nil
}

// nominalSpec is the nominal-rate launch of a run.
func nominalSpec(w workload, seed int64, o options) launchSpec {
	return launchSpec{rate: w.nominal, seed: subSeed(seed, 0), duration: o.nominal, drain: o.nominalDrain}
}

// warmUp runs a short launch at the nominal rate so the measured
// launches start in a warm process (heap sized, code paged in).
func warmUp(w workload, seed int64, o options, pl int) (*launch, error) {
	return runLaunch(core.Runner{}, w.config(), launchSpec{
		rate: w.nominal, seed: subSeed(seed, -2), duration: o.warmup, drain: o.nominalDrain,
	}, pl)
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w workload, seed int64, o options, stdout, log io.Writer) (outcome, error) {
	cfg := w.config()
	pl, err := predLen(cfg)
	if err != nil {
		return outcome{}, err
	}
	warm, err := warmUp(w, seed, o, pl)
	if err != nil {
		return outcome{}, err
	}
	// The nominal measurement is split into segments, one before the
	// capacity search and one after each bisection step, so it samples
	// the host's speed at several moments instead of one stretch.
	segments := o.search.steps + 1
	segDur := o.nominal / time.Duration(segments)
	var (
		segs []*launch
		v    verdict
	)
	segment := func(int) error {
		spec := nominalSpec(w, seed, o)
		spec.seed = subSeed(seed, -10-len(segs))
		spec.duration = segDur
		l, err := runLaunch(core.Runner{}, cfg, spec, pl)
		if err != nil {
			return err
		}
		sv := l.judge()
		fmt.Fprintf(log, "nominal %.0f ev/s %v: due %d sent %d scored %d p50 %.3f ms\n",
			w.nominal, spec.duration, sv.due, sv.sent, sv.scored, quantile(sv.lat, 0.5))
		segs = append(segs, l)
		v.merge(sv)
		return nil
	}
	if err := segment(0); err != nil {
		return outcome{}, err
	}
	capacity, probes, err := searchCapacity(w, seed, o.search, pl, log, segment)
	if err != nil {
		return outcome{}, err
	}

	setups := []float64{warm.setup.Seconds()}
	correct := v.wrong == 0 && warm.judge().wrong == 0
	var allocBytes float64
	for _, l := range segs {
		setups = append(setups, l.setup.Seconds())
		allocBytes += float64(l.allocBytes)
	}
	passed := 0
	for _, p := range probes {
		setups = append(setups, p.l.setup.Seconds())
		correct = correct && p.v.wrong == 0
		if p.passed {
			passed++
		}
	}
	if passed == 0 {
		fmt.Fprintf(log, "no probe passed: capacity is at or below the bracket floor %.0f ev/s\n", w.lo)
	}

	var m metricSet
	m.add("capacity_eps", "1/s", capacity)
	m.add("setup_s", "s", median(setups))
	m.add("alloc_kb_per_record", "KiB", ratio(allocBytes/1024, float64(v.scored)))
	samples := map[string]string{
		"capacity_eps":        fmt.Sprintf("%d probes of at least %v, %d passed, bracket %.0f-%.0f", len(probes), o.search.probe, passed, w.lo, w.hi),
		"setup_s":             fmt.Sprintf("median of n=%d launches", len(setups)),
		"alloc_kb_per_record": fmt.Sprintf("n=%d records", v.scored),
	}
	for _, x := range m {
		fmt.Fprintf(stdout, "  %-22s %12.4f %-4s  %s\n", x.name, x.value, x.unit, samples[x.name])
	}
	// Printed, not in the result line: on a host whose speed drifts
	// they are not steady enough for a regression bound (README.md,
	// "Spread"); the traced run reports them as e2e.*.
	nominal := fmt.Sprintf("n=%d at %.0f ev/s, %d segments of %v", len(v.lat), w.nominal, len(segs), segDur)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p99_ms", 0.99}} {
		fmt.Fprintf(stdout, "  %-22s %12.4f %-4s  %s (not a regression metric)\n", q.name, quantile(v.lat, q.q), "ms", nominal)
	}
	fmt.Fprintf(stdout, "  %-22s %12.4f %-4s  n=%d offered arrivals (reported as failed/attempted)\n",
		"failed_frac", ratio(float64(v.failed()), float64(v.offered)), "frac", v.offered)
	return outcome{correct: correct, attempted: v.offered, failed: v.failed(), metrics: m}, nil
}

// runTraced measures the per-layer metrics: an untraced nominal launch
// for reference, then the same launch traced.
func runTraced(w workload, seed int64, o options, stdout, log io.Writer) (outcome, error) {
	cfg := w.config()
	pl, err := predLen(cfg)
	if err != nil {
		return outcome{}, err
	}
	spec := nominalSpec(w, seed, o)
	warm, err := warmUp(w, seed, o, pl)
	if err != nil {
		return outcome{}, err
	}
	plain, err := runLaunch(core.Runner{}, cfg, spec, pl)
	if err != nil {
		return outcome{}, err
	}
	pv := plain.judge()

	offsets, _, err := scheduleOffsets(spec.policy(), spec.duration)
	if err != nil {
		return outcome{}, err
	}
	t := newTracer(len(offsets))
	l, err := runTracedLaunch(cfg, spec, pl, t)
	if err != nil {
		return outcome{}, err
	}
	v := l.judge()
	fmt.Fprintf(log, "traced nominal %.0f ev/s: due %d sent %d scored %d\n", w.nominal, v.due, v.sent, v.scored)

	fwd, err := forwardLoop(cfg, o.forward, subSeed(seed, -1))
	if err != nil {
		return outcome{}, err
	}
	recs := waterfall(l, t)
	m := layerMetrics(l, t, recs, fwd)
	untracedP50, tracedP50 := quantile(pv.lat, 0.5), quantile(v.lat, 0.5)
	m.add("trace.overhead_pct", "%", 100*(tracedP50-untracedP50)/untracedP50)
	m.add("e2e.p50_ms", "ms", untracedP50)
	m.add("e2e.p99_ms", "ms", quantile(pv.lat, 0.99))
	m.add("e2e.samples", "count", float64(len(pv.lat)))

	t.mu.Lock()
	refs := t.refs
	t.mu.Unlock()
	checked, mismatches, maxDiff, err := refCheck(cfg, refs)
	if err != nil {
		return outcome{}, err
	}
	m.add("trace.ref_checked", "count", float64(checked))
	m.add("trace.ref_max_abs_diff", "1", maxDiff)

	printWaterfall(stdout, recs)
	for _, x := range m {
		fmt.Fprintf(stdout, "  %-34s %12.4f %s\n", x.name, x.value, x.unit)
	}
	fmt.Fprintf(stdout, "reference check: %d records (every %dth), %d mismatches, max |diff| %.3g (tolerance %g)\n",
		checked, refEvery, mismatches, maxDiff, refTolerance)
	fmt.Fprintf(stdout, "untraced p50 %.4f ms, traced p50 %.4f ms\n", untracedP50, tracedP50)

	if o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := t.write(path, func(id int64) int64 { return l.dueTime(id).UnixNano() }); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	correct := v.wrong == 0 && pv.wrong == 0 && warm.judge().wrong == 0 && mismatches == 0 && checked > 0
	return outcome{correct: correct, attempted: v.offered, failed: v.failed(), metrics: m}, nil
}

// runTracedLaunch runs one launch with every layer entry point wrapped:
// a fresh in-process broker carrying the workload's network profile
// (the runner leaves a caller-supplied transport as it is), the codec,
// and the engine's transform.
func runTracedLaunch(cfg core.Config, spec launchSpec, pl int, t *tracer) (*launch, error) {
	transport, closeBroker := tracedBroker(cfg.Network, t)
	defer closeBroker()
	eng, err := sps.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	r := core.Runner{
		Transport: transport,
		Codec:     &tracedCodec{inner: core.JSONCodec{}, t: t},
		Engine:    &tracedEngine{Processor: eng, t: t},
	}
	return runLaunch(r, cfg, spec, pl)
}

// tracedBroker starts a private in-process broker with the workload's
// network profile, as the runner would, and wraps it for tracing.
func tracedBroker(network netsim.Profile, t *tracer) (broker.Transport, func()) {
	bcfg := broker.DefaultConfig()
	bcfg.Network = network
	b := broker.New(bcfg)
	return wrapTransport(b, t), b.Close
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the result line: the last line of stdout.
func writeResult(w io.Writer, o outcome) error {
	ms := make(map[string]jsonMetric, len(o.metrics))
	for _, m := range o.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		ms[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
