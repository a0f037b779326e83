package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/sps"
)

// stamp is a wall-clock instant in Unix nanoseconds, set once: the
// first writer wins, so a redelivered record keeps its first pass.
type stamp struct{ v atomic.Int64 }

func (s *stamp) set(ns int64)     { s.v.CompareAndSwap(0, ns) }
func (s *stamp) get() int64       { return s.v.Load() }
func (s *stamp) isSet() bool      { return s.v.Load() != 0 }
func wallNow() int64              { return time.Now().UnixNano() }
func spanOf(a, b *stamp) [2]int64 { return [2]int64{a.get(), b.get()} }

// recordTrace holds one record's stage boundaries. Each field is
// written by the one pipeline stage that owns it and read only after
// the launch has ended.
type recordTrace struct {
	created              stamp // DataBatch.CreatedNanos
	encInStart, encInEnd stamp // producer encode
	prodInStart          stamp // broker Produce call carrying it (input topic)
	prodInEnd            stamp
	fetchEnd             stamp // engine fetch call returned it
	xformStart, xformEnd stamp // engine transform (sps.Transform)
	decInStart, decInEnd stamp // engine decode
	encOutStart          stamp // engine encode
	encOutEnd            stamp
	prodOutStart         stamp // broker Produce call carrying it (output topic)
	prodOutEnd           stamp
	decOutStart          stamp // output consumer decode
	decOutEnd            stamp
	bytesIn, bytesOut    atomic.Int64
}

// callSpan is one broker call.
type callSpan struct {
	Call    string `json:"call"`
	Topic   string `json:"topic"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Records int    `json:"records"`
}

// refSample is a scored record kept for the reference forward pass.
type refSample struct {
	id     int64
	count  int
	inputs []float32
	preds  []float32
}

// tracer collects the spans of one traced launch, in memory.
type tracer struct {
	recs  []recordTrace
	mu    sync.Mutex
	calls []callSpan
	refs  []refSample

	// producedIn and fetchedIn count input-topic records appended and
	// handed to the engine; backlogMax is the largest difference seen.
	producedIn, fetchedIn, backlogMax atomic.Int64
}

// refEvery keeps every refEvery-th scored record for the reference
// comparison.
const refEvery = 25

func newTracer(maxRecords int) *tracer {
	return &tracer{recs: make([]recordTrace, maxRecords)}
}

// rec returns the trace slot of a record ID, or nil when it is out of
// range (never traced).
func (t *tracer) rec(id int64) *recordTrace {
	if id < 0 || id >= int64(len(t.recs)) {
		return nil
	}
	return &t.recs[id]
}

func (t *tracer) addCall(c callSpan) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// noteBacklog updates the input backlog high-water mark.
func (t *tracer) noteBacklog() {
	b := t.producedIn.Load() - t.fetchedIn.Load()
	for {
		m := t.backlogMax.Load()
		if b <= m || t.backlogMax.CompareAndSwap(m, b) {
			return
		}
	}
}

// recordID reads the ID of a JSON-encoded DataBatch without decoding
// it: the codec writes the id field first. It returns -1 for any other
// encoding.
func recordID(value []byte) int64 {
	const prefix = `{"id":`
	if len(value) <= len(prefix) || string(value[:len(prefix)]) != prefix {
		return -1
	}
	var id int64
	n := 0
	for _, c := range value[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
		n++
	}
	if n == 0 {
		return -1
	}
	return id
}

// tracedCodec times every codec call. Encodes of records without
// predictions are the producer's, encodes with predictions the
// engine's; decodes likewise split into engine (input) and output
// consumer (scored) decodes.
type tracedCodec struct {
	inner core.BatchCodec
	t     *tracer
}

// Name implements core.BatchCodec.
func (c *tracedCodec) Name() string { return c.inner.Name() }

// Marshal implements core.BatchCodec.
func (c *tracedCodec) Marshal(b *core.DataBatch) ([]byte, error) {
	start := wallNow()
	out, err := c.inner.Marshal(b)
	end := wallNow()
	if r := c.t.rec(b.ID); r != nil && err == nil {
		if len(b.Predictions) == 0 {
			r.created.set(b.CreatedNanos)
			r.encInStart.set(start)
			r.encInEnd.set(end)
			r.bytesIn.CompareAndSwap(0, int64(len(out)))
		} else {
			r.encOutStart.set(start)
			r.encOutEnd.set(end)
			r.bytesOut.CompareAndSwap(0, int64(len(out)))
		}
	}
	return out, err
}

// Unmarshal implements core.BatchCodec.
func (c *tracedCodec) Unmarshal(data []byte) (*core.DataBatch, error) {
	start := wallNow()
	b, err := c.inner.Unmarshal(data)
	end := wallNow()
	if err != nil {
		return b, err
	}
	r := c.t.rec(b.ID)
	if r == nil {
		return b, nil
	}
	if len(b.Predictions) == 0 {
		r.decInStart.set(start)
		r.decInEnd.set(end)
		return b, nil
	}
	if !r.decOutStart.isSet() && b.ID%refEvery == 0 {
		c.t.mu.Lock()
		c.t.refs = append(c.t.refs, refSample{
			id:     b.ID,
			count:  b.Count,
			inputs: append([]float32(nil), b.Inputs...),
			preds:  append([]float32(nil), b.Predictions...),
		})
		c.t.mu.Unlock()
	}
	r.decOutStart.set(start)
	r.decOutEnd.set(end)
	return b, nil
}

// tracedEngine wraps an engine so its scoring transform is timed.
type tracedEngine struct {
	sps.Processor
	t *tracer
}

// Run implements sps.Processor.
func (e *tracedEngine) Run(spec sps.JobSpec) (sps.Job, error) {
	inner := spec.Transform
	spec.Transform = func(value []byte) ([]byte, error) {
		start := wallNow()
		out, err := inner(value)
		end := wallNow()
		if r := e.t.rec(recordID(value)); r != nil {
			r.xformStart.set(start)
			r.xformEnd.set(end)
		}
		return out, err
	}
	return e.Processor.Run(spec)
}

// tracedTransport times every produce and fetch call. Optional
// extensions of the wrapped transport are forwarded by wrapTransport.
type tracedTransport struct {
	broker.Transport
	t *tracer
}

// wrapTransport wraps inner for tracing. The result implements
// broker.AppendNotifier and broker.MultiFetcherInto exactly when inner
// does: clients probe for them, and without them they fall back to
// timed re-polling and allocating fetches, which would trace a
// different program.
func wrapTransport(inner broker.Transport, t *tracer) broker.Transport {
	base := &tracedTransport{Transport: inner, t: t}
	n, notifies := inner.(broker.AppendNotifier)
	f, into := inner.(broker.MultiFetcherInto)
	switch {
	case notifies && into:
		return struct {
			*tracedTransport
			signalForwarder
			intoFetcher
		}{base, signalForwarder{n}, intoFetcher{base, f}}
	case notifies:
		return struct {
			*tracedTransport
			signalForwarder
		}{base, signalForwarder{n}}
	case into:
		return struct {
			*tracedTransport
			intoFetcher
		}{base, intoFetcher{base, f}}
	}
	return base
}

// Produce implements broker.Transport.
func (tt *tracedTransport) Produce(topic string, partition int, recs []broker.Record) (int64, error) {
	start := wallNow()
	off, err := tt.Transport.Produce(topic, partition, recs)
	end := wallNow()
	if err != nil {
		return off, err
	}
	call := "produce_out"
	if topic == core.InputTopic {
		call = "produce_in"
		tt.t.producedIn.Add(int64(len(recs)))
		tt.t.noteBacklog()
	}
	for i := range recs {
		r := tt.t.rec(recordID(recs[i].Value))
		if r == nil {
			continue
		}
		if topic == core.InputTopic {
			r.prodInStart.set(start)
			r.prodInEnd.set(end)
		} else {
			r.prodOutStart.set(start)
			r.prodOutEnd.set(end)
		}
	}
	tt.t.addCall(callSpan{Call: call, Topic: topic, Start: start, End: end, Records: len(recs)})
	return off, nil
}

// Fetch implements broker.Transport.
func (tt *tracedTransport) Fetch(topic string, partition int, offset int64, max int) ([]broker.Record, error) {
	start := wallNow()
	out, err := tt.Transport.Fetch(topic, partition, offset, max)
	tt.fetched(topic, start, out, err)
	return out, err
}

// FetchMulti implements broker.Transport.
func (tt *tracedTransport) FetchMulti(topic string, reqs []broker.FetchRequest, maxTotal int) ([]broker.Record, error) {
	start := wallNow()
	out, err := tt.Transport.FetchMulti(topic, reqs, maxTotal)
	tt.fetched(topic, start, out, err)
	return out, err
}

// fetched records a fetch call that began at start and returned recs.
func (tt *tracedTransport) fetched(topic string, start int64, recs []broker.Record, err error) {
	end := wallNow()
	if err != nil {
		return
	}
	if topic == core.InputTopic {
		tt.t.fetchedIn.Add(int64(len(recs)))
		for i := range recs {
			if r := tt.t.rec(recordID(recs[i].Value)); r != nil {
				r.fetchEnd.set(end)
			}
		}
	}
	tt.t.addCall(callSpan{Call: "fetch", Topic: topic, Start: start, End: end, Records: len(recs)})
}

// signalForwarder forwards broker.AppendNotifier.
type signalForwarder struct{ n broker.AppendNotifier }

// AppendSignal implements broker.AppendNotifier.
func (s signalForwarder) AppendSignal(topic string) (<-chan struct{}, error) {
	return s.n.AppendSignal(topic)
}

// intoFetcher forwards broker.MultiFetcherInto, traced.
type intoFetcher struct {
	tt *tracedTransport
	f  broker.MultiFetcherInto
}

// FetchMultiInto implements broker.MultiFetcherInto.
func (f intoFetcher) FetchMultiInto(topic string, reqs []broker.FetchRequest, maxTotal int, out []broker.Record) ([]broker.Record, error) {
	start := wallNow()
	base := len(out)
	res, err := f.f.FetchMultiInto(topic, reqs, maxTotal, out)
	if err == nil {
		f.tt.fetched(topic, start, res[base:], nil)
	}
	return res, err
}

// spanLine is one record stage in the written trace.
type spanLine struct {
	ID    int64  `json:"id"`
	Stage string `json:"stage"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// write stores every span as one JSON object per line: record stages
// keyed by record ID (the due stage runs from due time to creation),
// then the broker calls.
func (t *tracer) write(path string, due func(id int64) int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for id := range t.recs {
		r := &t.recs[id]
		if !r.created.isSet() {
			continue
		}
		stages := []struct {
			name string
			span [2]int64
		}{
			{"due", [2]int64{due(int64(id)), r.created.get()}},
			{"create", [2]int64{r.created.get(), r.encInStart.get()}},
			{"encode_in", spanOf(&r.encInStart, &r.encInEnd)},
			{"produce_in", spanOf(&r.prodInStart, &r.prodInEnd)},
			{"wait_in", spanOf(&r.encInEnd, &r.decInStart)},
			{"transform", spanOf(&r.xformStart, &r.xformEnd)},
			{"decode_in", spanOf(&r.decInStart, &r.decInEnd)},
			{"score", spanOf(&r.decInEnd, &r.encOutStart)},
			{"encode_out", spanOf(&r.encOutStart, &r.encOutEnd)},
			{"produce_out", spanOf(&r.prodOutStart, &r.prodOutEnd)},
			{"decode_out", spanOf(&r.decOutStart, &r.decOutEnd)},
		}
		for _, s := range stages {
			if err := enc.Encode(spanLine{ID: int64(id), Stage: s.name, Start: s.span[0], End: s.span[1]}); err != nil {
				_ = f.Close()
				return err
			}
		}
	}
	t.mu.Lock()
	calls := t.calls
	t.mu.Unlock()
	for _, c := range calls {
		if err := enc.Encode(c); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
