package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/gpu"
	"crayfish/internal/model"
	"crayfish/internal/tensor"
)

// stageNames are the waterfall's consecutive stages; for a record whose
// stamps are in order they sum to its due-time latency.
var stageNames = []string{
	"late",         // due → created: generator behind schedule
	"create",       // created → producer encode start
	"encode_in",    // producer encode
	"batch",        // encode end → Produce call start: producer send batching
	"broker_in",    // Produce call start → engine fetch returned it
	"engine_queue", // fetch returned → engine decode start
	"decode_in",    // engine decode
	"score",        // decode end → encode start: serving call
	"encode_out",   // engine encode
	"sink",         // encode end → Produce call start on the output topic
	"produce_out",  // Produce call start → output LogAppendTime
}

// recordStages is one record's waterfall in nanoseconds.
type recordStages struct {
	id        int64
	stages    [11]int64
	e2e       int64 // output append − due
	transform int64 // engine transform call
	score     int64 // transform − decode_in − encode_out of the same call
}

// residual is e2e minus the sum of the stages clamped at zero: zero
// when every stamp is in order, positive when the chain is broken.
func (r *recordStages) residual() int64 {
	var sum int64
	for _, s := range r.stages {
		if s > 0 {
			sum += s
		}
	}
	return r.e2e - sum
}

// waterfall joins a traced launch's stamps into per-record stages.
// Only post-warmup due records with every stamp present are kept.
func waterfall(l *launch, t *tracer) []recordStages {
	ends := make(map[int64]int64, len(l.res.Samples))
	for _, s := range l.res.Samples {
		ends[s.ID] = s.End.UnixNano()
	}
	var out []recordStages
	for id := l.warmupEnd(); id < int64(l.due) && id < int64(len(t.recs)); id++ {
		r := &t.recs[id]
		end, ok := ends[id]
		if !ok || !complete(r) {
			continue
		}
		due := l.dueTime(id).UnixNano()
		points := []int64{
			due, r.created.get(), r.encInStart.get(), r.encInEnd.get(), r.prodInStart.get(),
			r.fetchEnd.get(), r.decInStart.get(), r.decInEnd.get(), r.encOutStart.get(),
			r.encOutEnd.get(), r.prodOutStart.get(), end,
		}
		rs := recordStages{id: id, e2e: end - due}
		for i := range rs.stages {
			rs.stages[i] = points[i+1] - points[i]
		}
		rs.transform = r.xformEnd.get() - r.xformStart.get()
		rs.score = rs.transform - (r.decInEnd.get() - r.decInStart.get()) - (r.encOutEnd.get() - r.encOutStart.get())
		out = append(out, rs)
	}
	return out
}

// complete reports whether every stamp of a record was taken.
func complete(r *recordTrace) bool {
	for _, s := range []*stamp{
		&r.created, &r.encInStart, &r.encInEnd, &r.prodInStart, &r.prodInEnd, &r.fetchEnd,
		&r.xformStart, &r.xformEnd, &r.decInStart, &r.decInEnd, &r.encOutStart, &r.encOutEnd,
		&r.prodOutStart, &r.prodOutEnd, &r.decOutStart, &r.decOutEnd,
	} {
		if !s.isSet() {
			return false
		}
	}
	return true
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// metricSet accumulates metrics in report order.
type metricSet []metric

func (m *metricSet) add(name, unit string, v float64) {
	*m = append(*m, metric{name, unit, v})
}

// dist adds name.p50, name.p99 and name.count for a distribution given
// in nanoseconds, scaled to unit ("us" or "ms").
func (m *metricSet) dist(name, unit string, ns []float64) {
	scale := 1e3
	if unit == "ms" {
		scale = 1e6
	}
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = v / scale
	}
	sort.Float64s(s)
	m.add(name+".p50", unit, quantile(s, 0.5))
	m.add(name+".p99", unit, quantile(s, 0.99))
	m.add(name+".count", "count", float64(len(s)))
}

// layerMetrics computes every per-layer metric of a traced launch.
func layerMetrics(l *launch, t *tracer, recs []recordStages, forwardNs []float64) metricSet {
	var m metricSet
	col := func(f func(r *recordTrace, s *recordStages) int64) []float64 {
		out := make([]float64, len(recs))
		for i := range recs {
			out[i] = float64(f(&t.recs[recs[i].id], &recs[i]))
		}
		return out
	}
	span := func(a, b func(r *recordTrace) *stamp) []float64 {
		return col(func(r *recordTrace, _ *recordStages) int64 { return b(r).get() - a(r).get() })
	}

	// loadgen
	v := l.judge()
	m.dist("loadgen.late_ms", "ms", col(func(_ *recordTrace, s *recordStages) int64 { return s.stages[0] }))
	m.add("loadgen.sent_frac", "frac", float64(v.sent)/float64(v.due))

	// core codec
	encIn := span(func(r *recordTrace) *stamp { return &r.encInStart }, func(r *recordTrace) *stamp { return &r.encInEnd })
	decIn := span(func(r *recordTrace) *stamp { return &r.decInStart }, func(r *recordTrace) *stamp { return &r.decInEnd })
	encOut := span(func(r *recordTrace) *stamp { return &r.encOutStart }, func(r *recordTrace) *stamp { return &r.encOutEnd })
	decOut := span(func(r *recordTrace) *stamp { return &r.decOutStart }, func(r *recordTrace) *stamp { return &r.decOutEnd })
	m.dist("core.codec.encode_in_us", "us", encIn)
	m.dist("core.codec.decode_in_us", "us", decIn)
	m.dist("core.codec.encode_out_us", "us", encOut)
	m.dist("core.codec.decode_out_us", "us", decOut)
	m.add("core.codec.bytes_in", "B", mean(col(func(r *recordTrace, _ *recordStages) int64 { return r.bytesIn.Load() })))
	m.add("core.codec.bytes_out", "B", mean(col(func(r *recordTrace, _ *recordStages) int64 { return r.bytesOut.Load() })))
	m.add("core.codec.us_per_record", "us", (mean(encIn)+mean(decIn)+mean(encOut)+mean(decOut))/1e3)

	// broker
	t.mu.Lock()
	calls := t.calls
	t.mu.Unlock()
	var prodIn, prodOut, fetch []float64
	fetchRecs, empty := 0, 0
	for _, c := range calls {
		d := float64(c.End - c.Start)
		switch {
		case c.Call == "produce_in":
			prodIn = append(prodIn, d)
		case c.Call == "produce_out":
			prodOut = append(prodOut, d)
		case c.Call == "fetch" && c.Topic == core.InputTopic:
			fetch = append(fetch, d)
			fetchRecs += c.Records
			if c.Records == 0 {
				empty++
			}
		}
	}
	m.dist("broker.produce_in_us", "us", prodIn)
	m.dist("broker.produce_out_us", "us", prodOut)
	m.dist("broker.fetch_us", "us", fetch)
	m.add("broker.fetch.records_per_call", "records", ratio(float64(fetchRecs), float64(len(fetch))))
	m.add("broker.fetch.empty_frac", "frac", ratio(float64(empty), float64(len(fetch))))
	m.add("broker.backlog.max", "records", float64(t.backlogMax.Load()))

	// sps
	xform := col(func(_ *recordTrace, s *recordStages) int64 { return s.transform })
	m.dist("sps.transform_us", "us", xform)
	m.dist("sps.wait_in_ms", "ms", span(func(r *recordTrace) *stamp { return &r.encInEnd }, func(r *recordTrace) *stamp { return &r.decInStart }))
	m.dist("sps.wait_out_ms", "ms", col(func(r *recordTrace, s *recordStages) int64 { return s.stages[9] + s.stages[10] }))
	var busy float64
	for i := range t.recs {
		r := &t.recs[i]
		if r.xformStart.isSet() && r.xformEnd.isSet() {
			busy += float64(r.xformEnd.get() - r.xformStart.get())
		}
	}
	mp := float64(l.res.Config.ParallelismDefault)
	m.add("sps.busy_frac", "frac", busy/(float64(l.res.Config.Workload.Duration)*mp))

	// serving and model
	score := col(func(_ *recordTrace, s *recordStages) int64 { return s.score })
	m.dist("serving.score_us", "us", score)
	m.add("serving.score_share", "frac", ratio(sum(score), sum(xform)))
	m.dist("model.forward_us", "us", forwardNs)

	// the trace itself
	resid := col(func(_ *recordTrace, s *recordStages) int64 { return s.residual() })
	e2e := col(func(_ *recordTrace, s *recordStages) int64 { return s.e2e })
	m.dist("trace.e2e_ms", "ms", e2e)
	m.dist("trace.residual_us", "us", resid)
	return m
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printWaterfall writes the per-stage table: median and mean of each
// stage in microseconds and its share of the mean due-time latency.
func printWaterfall(w io.Writer, recs []recordStages) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "waterfall: no complete records")
		return
	}
	var e2e float64
	for i := range recs {
		e2e += float64(recs[i].e2e)
	}
	e2e /= float64(len(recs))
	fmt.Fprintf(w, "waterfall over %d records (us):\n", len(recs))
	fmt.Fprintf(w, "  %-13s %10s %10s %7s\n", "stage", "p50", "mean", "share")
	for i, name := range stageNames {
		vals := make([]float64, len(recs))
		for j := range recs {
			vals[j] = float64(recs[j].stages[i])
		}
		fmt.Fprintf(w, "  %-13s %10.1f %10.1f %6.1f%%\n", name, median(vals)/1e3, mean(vals)/1e3, 100*mean(vals)/e2e)
	}
	fmt.Fprintf(w, "  %-13s %10s %10.1f %6.1f%%\n", "due->append", "", e2e/1e3, 100.0)
}

// forwardLoop times a closed loop of Plan.Forward calls at the
// workload's batch size, compiled with the same execution hints the
// embedded runtime derives from the device, for about budget.
func forwardLoop(cfg core.Config, budget time.Duration, seed int64) ([]float64, error) {
	m, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	dev, err := gpu.ByName(cfg.Serving.Device)
	if err != nil {
		return nil, err
	}
	p, err := m.Compile(model.ExecHints{Workers: dev.Workers(), FastConv: dev.FastKernels()})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	n := cfg.Workload.BatchSize
	rng := rand.New(rand.NewSource(seed))
	in := make([]float32, n*m.InputLen())
	for i := range in {
		in[i] = rng.Float32()
	}
	scratch := make([]float32, len(in))
	out := make([]float32, n*p.OutputLen())
	var ns []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 100000 && (i < 20 || time.Now().Before(deadline)); i++ {
		copy(scratch, in) // Forward may use its input as scratch
		start := time.Now()
		if err := p.Forward(scratch, n, out); err != nil {
			return nil, err
		}
		if i >= 5 { // the first calls size the plan's arenas
			ns = append(ns, float64(time.Since(start)))
		}
	}
	return ns, nil
}

// refTolerance bounds the absolute difference between a served
// prediction and the reference forward pass: the served plan may fuse
// or reorder float32 arithmetic, the reference runs unfused.
const refTolerance = 1e-4

// refCheck scores the kept records with the model's reference forward
// pass and compares: every prediction within refTolerance and the same
// argmax class per point (a tie within tolerance is not a mismatch).
func refCheck(cfg core.Config, refs []refSample) (checked, mismatches int, maxDiff float64, err error) {
	m, err := cfg.Model.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	classes := m.OutputSize
	for _, r := range refs {
		x := tensor.New(append([]int{r.count}, m.InputShape...)...)
		copy(x.Data(), r.inputs)
		y, err := m.Forward(x)
		if err != nil {
			return checked, mismatches, maxDiff, err
		}
		want := y.Data()
		checked++
		bad := len(want) != len(r.preds)
		for i := 0; !bad && i < len(want); i++ {
			d := math.Abs(float64(want[i] - r.preds[i]))
			maxDiff = math.Max(maxDiff, d)
			bad = d > refTolerance
		}
		for p := 0; !bad && p < r.count; p++ {
			wa, ga := argmax(want[p*classes:(p+1)*classes]), argmax(r.preds[p*classes:(p+1)*classes])
			bad = wa != ga && math.Abs(float64(r.preds[p*classes+wa]-r.preds[p*classes+ga])) > refTolerance
		}
		if bad {
			mismatches++
		}
	}
	return checked, mismatches, maxDiff, nil
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
