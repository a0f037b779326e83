package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/netsim"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions shrinks a run to a fraction of a second per launch: the
// self-test checks plumbing and output, not performance.
func tinyOptions() options {
	o := defaultOptions(0.3)
	o.warmup = 200 * time.Millisecond
	// A long drain costs nothing when the pipeline keeps up, and lets a
	// slow (race-instrumented) pipeline finish its few records.
	o.nominalDrain = 30 * time.Second
	o.search = searchSpec{steps: 1, probe: 300 * time.Millisecond, drain: 300 * time.Millisecond}
	o.forward = 50 * time.Millisecond
	return o
}

// checkPrinted asserts that every metric is printed on its own line as
// name, value, unit, and that the result line carries exactly them.
func checkPrinted(t *testing.T, out string, want []specMetric) {
	t.Helper()
	printed := map[string]string{}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) >= 3 {
			printed[f[0]] = f[2]
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Unit string `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct {
		t.Errorf("outputs judged incorrect:\n%s", out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if printed[m.Name] != m.Unit {
			t.Errorf("metric %s printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
		}
		if res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("result metric %s has unit %q, want %q", m.Name, res.Metrics[m.Name].Unit, m.Unit)
		}
	}
}

func TestWorkloadsTinyScale(t *testing.T) {
	spec := readSpec(t)
	for _, sw := range spec.Workloads {
		if _, err := lookupWorkload(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out, log bytes.Buffer
			res, err := runEndToEnd(w, 7, tinyOptions(), &out, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if err := writeResult(&out, res); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, out.String(), spec.EndToEnd)

			out.Reset()
			o := tinyOptions()
			o.traceDir = t.TempDir()
			res, err = runTraced(w, 7, o, &out, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if err := writeResult(&out, res); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, out.String(), spec.PerLayer)
			if files, _ := filepath.Glob(filepath.Join(o.traceDir, "*.jsonl")); len(files) != 1 {
				t.Errorf("span files written: %v", files)
			}
		})
	}
}

// TestWaterfallSumsToLatency checks the traced stages of every record
// add up to its due-time latency: the stamps are taken in pipeline
// order, so no stage is negative and nothing is left over.
func TestWaterfallSumsToLatency(t *testing.T) {
	w, err := lookupWorkload("ffnn-embedded")
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.config()
	pl, err := predLen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := launchSpec{rate: 500, seed: 3, duration: 300 * time.Millisecond, drain: 30 * time.Second}
	offsets, _, err := scheduleOffsets(spec.policy(), spec.duration)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(len(offsets))
	l, err := runTracedLaunch(cfg, spec, pl, tr)
	if err != nil {
		t.Fatal(err)
	}
	recs := waterfall(l, tr)
	if len(recs) < l.due/2 {
		t.Fatalf("only %d of %d due records have a complete trace", len(recs), l.due)
	}
	for _, r := range recs {
		var sum int64
		for i, s := range r.stages {
			if s < 0 {
				t.Errorf("record %d stage %s is negative: %d ns", r.id, stageNames[i], s)
			}
			sum += s
		}
		if sum != r.e2e || r.residual() != 0 {
			t.Errorf("record %d: stages sum to %d ns, due-to-append latency is %d ns", r.id, sum, r.e2e)
		}
		if r.score <= 0 || r.score > r.transform {
			t.Errorf("record %d: score %d ns outside its transform %d ns", r.id, r.score, r.transform)
		}
	}
}

// transportOnly hides every optional extension of a transport.
type transportOnly struct{ broker.Transport }

func TestWrapTransportForwardsExtensions(t *testing.T) {
	b := broker.New(broker.DefaultConfig())
	defer b.Close()
	tr := newTracer(16)

	full := wrapTransport(b, tr)
	if _, ok := full.(broker.AppendNotifier); !ok {
		t.Error("wrapped *broker.Broker lost broker.AppendNotifier")
	}
	if _, ok := full.(broker.MultiFetcherInto); !ok {
		t.Error("wrapped *broker.Broker lost broker.MultiFetcherInto")
	}
	bare := wrapTransport(transportOnly{b}, tr)
	if _, ok := bare.(broker.AppendNotifier); ok {
		t.Error("wrapper invents broker.AppendNotifier the wrapped transport lacks")
	}
	if _, ok := bare.(broker.MultiFetcherInto); ok {
		t.Error("wrapper invents broker.MultiFetcherInto the wrapped transport lacks")
	}

	// The forwarded extensions reach the broker and stay traced.
	if err := full.CreateTopic(core.InputTopic, 1); err != nil {
		t.Fatal(err)
	}
	signal, err := full.(broker.AppendNotifier).AppendSignal(core.InputTopic)
	if err != nil {
		t.Fatal(err)
	}
	value, err := core.JSONCodec{}.Marshal(&core.DataBatch{ID: 3, Count: 1, Inputs: []float32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Produce(core.InputTopic, 0, []broker.Record{{Value: value}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-signal:
	default:
		t.Error("append signal not closed by a produce through the wrapper")
	}
	recs, err := full.(broker.MultiFetcherInto).FetchMultiInto(core.InputTopic, []broker.FetchRequest{{Partition: 0}}, 10, nil)
	if err != nil || len(recs) != 1 {
		t.Fatalf("FetchMultiInto through the wrapper: %d records, %v", len(recs), err)
	}
	r := tr.rec(3)
	if !r.prodInStart.isSet() || !r.fetchEnd.isSet() {
		t.Error("produce and fetch through the wrapper were not traced")
	}
	if got := tr.backlogMax.Load(); got != 1 {
		t.Errorf("backlog high-water mark %d, want 1", got)
	}
}

// TestTracedBrokerCarriesNetwork checks the traced run's broker models
// the workload's links: a produce pays at least the profile's latency.
func TestTracedBrokerCarriesNetwork(t *testing.T) {
	transport, closeBroker := tracedBroker(netsim.LAN, newTracer(1))
	defer closeBroker()
	if err := transport.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := transport.Produce("t", 0, []broker.Record{{Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < netsim.LAN.Latency {
		t.Errorf("produce over the traced LAN broker took %v, below the profile's %v", took, netsim.LAN.Latency)
	}
}

func TestRecordID(t *testing.T) {
	value, err := core.JSONCodec{}.Marshal(&core.DataBatch{ID: 12345, Count: 1, Inputs: []float32{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   []byte
		want int64
	}{
		{value, 12345},
		{[]byte(`{"id":0,"created_ns":1}`), 0},
		{[]byte(`{"created_ns":1}`), -1},
		{[]byte(`{"id":`), -1},
		{nil, -1},
	} {
		if got := recordID(tc.in); got != tc.want {
			t.Errorf("recordID(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestCodeIsClean runs go vet over the benchmark and the project's
// crayfishlint suite over the repository, which includes this
// directory, and rejects lint suppressions in the benchmark's code.
func TestCodeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the linters")
	}
	vet := exec.Command("go", "vet", "./...")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	lint := exec.Command("go", "run", "crayfish/cmd/crayfishlint", root)
	out, err := lint.CombinedOutput()
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "streambench/") {
			t.Errorf("crayfishlint: %s", line)
		}
	}
	if err != nil && !strings.Contains(string(out), "finding(s)") {
		t.Errorf("crayfishlint did not run: %v\n%s", err, out)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte("//lint:"+"allow")) {
			t.Errorf("%s carries a lint suppression", f)
		}
	}
}
