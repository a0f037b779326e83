package core

import (
	"path/filepath"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/loadgen"

	// Register the engines under test.
	_ "crayfish/internal/sps/flink"
	_ "crayfish/internal/sps/kstreams"
	_ "crayfish/internal/sps/ray"
	_ "crayfish/internal/sps/sparkss"
)

// quickConfig is a small, fast experiment configuration.
func quickConfig(engine string, serving ServingConfig) Config {
	load := loadgen.Constant(400)
	return Config{
		Workload: Workload{
			InputShape: []int{28, 28},
			BatchSize:  1,
			Load:       &load,
			Duration:   250 * time.Millisecond,
			Seed:       1,
		},
		Engine:             engine,
		Serving:            serving,
		Model:              ModelSpec{Name: "ffnn", Seed: 1},
		ParallelismDefault: 1,
		Partitions:         4,
		WarmupFraction:     0.25,
	}
}

func TestRunEmbeddedAllEngines(t *testing.T) {
	for _, engine := range []string{"flink", "kafka-streams", "spark-ss", "ray"} {
		t.Run(engine, func(t *testing.T) {
			r := &Runner{}
			res, err := r.Run(quickConfig(engine, ServingConfig{Mode: Embedded, Tool: "onnx"}))
			if err != nil {
				t.Fatal(err)
			}
			if res.EngineErr != nil {
				t.Fatalf("engine error: %v", res.EngineErr)
			}
			if res.Metrics.Consumed < res.Metrics.Produced*8/10 {
				t.Fatalf("consumed %d of %d produced", res.Metrics.Consumed, res.Metrics.Produced)
			}
			if res.Metrics.Latency.Mean <= 0 {
				t.Fatalf("latency %v", res.Metrics.Latency.Mean)
			}
			if res.Duplicates != 0 {
				t.Fatalf("%d duplicate batches", res.Duplicates)
			}
		})
	}
}

func TestRunExternalServing(t *testing.T) {
	r := &Runner{}
	res, err := r.Run(quickConfig("flink", ServingConfig{Mode: External, Tool: "tf-serving"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineErr != nil {
		t.Fatalf("engine error: %v", res.EngineErr)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("nothing consumed")
	}
}

func TestRunKeepSamples(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.KeepSamples = true
	r := &Runner{}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != res.Metrics.Consumed {
		t.Fatalf("kept %d samples, consumed %d", len(res.Samples), res.Metrics.Consumed)
	}
	// End-to-end timestamp sanity: end >= start for every sample.
	for _, s := range res.Samples {
		if s.End.Before(s.Start) {
			t.Fatalf("sample %d ends before it starts", s.ID)
		}
	}
}

func TestRunValidation(t *testing.T) {
	r := &Runner{}
	bad := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	bad.Engine = ""
	if _, err := r.Run(bad); err == nil {
		t.Fatal("empty engine accepted")
	}
	bad = quickConfig("storm", ServingConfig{Mode: Embedded, Tool: "onnx"})
	if _, err := r.Run(bad); err == nil {
		t.Fatal("unknown engine accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: "sideways", Tool: "onnx"})
	if _, err := r.Run(bad); err == nil {
		t.Fatal("bad mode accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "tensorrt"})
	if _, err := r.Run(bad); err == nil {
		t.Fatal("unknown tool accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	bad.Workload.InputShape = []int{3}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	bad.Model = ModelSpec{Name: "alexnet"}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestRunOnRemoteBroker(t *testing.T) {
	// The same experiment must run against a TCP broker daemon.
	b := broker.New(broker.DefaultConfig())
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := broker.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	r := &Runner{Transport: rc}
	cfg := quickConfig("kafka-streams", ServingConfig{Mode: Embedded, Tool: "onnx"})
	load := loadgen.Constant(200)
	cfg.Workload.Load = &load
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("nothing consumed over TCP broker")
	}
	// Topics were cleaned up, so a rerun succeeds.
	if _, err := r.Run(cfg); err != nil {
		t.Fatalf("rerun on remote broker: %v", err)
	}
}

func TestRunAveraged(t *testing.T) {
	r := &Runner{}
	results, err := r.RunAveraged(quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if MeanThroughput(results) <= 0 {
		t.Fatal("mean throughput not positive")
	}
	if MeanLatency(results) <= 0 {
		t.Fatal("mean latency not positive")
	}
	if MeanThroughput(nil) != 0 || MeanLatency(nil) != 0 {
		t.Fatal("empty aggregates not zero")
	}
}

func TestRunStandalone(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.KeepSamples = true
	res, err := RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("standalone consumed nothing")
	}
	if res.Metrics.Latency.Mean <= 0 {
		t.Fatal("standalone latency not positive")
	}
}

// TestRunStandaloneHonoursLoad pins the standalone pipeline to the
// workload's arrival schedule: a five-arrival trace yields exactly five
// events, well inside the run's duration.
func TestRunStandaloneHonoursLoad(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	load := loadgen.Trace([]time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond})
	cfg.Workload.Load = &load
	cfg.Workload.Duration = 300 * time.Millisecond
	res, err := RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Produced != 5 {
		t.Fatalf("standalone produced %d events for a 5-arrival trace", res.Metrics.Produced)
	}
}

// TestRunStandaloneDataset checks the standalone pipeline reads and
// validates the workload's dataset like the input producer does.
func TestRunStandaloneDataset(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Workload.DatasetPath = filepath.Join(dir, "missing.crf")
	if _, err := RunStandalone(cfg); err == nil {
		t.Fatal("missing dataset accepted")
	}
	short := filepath.Join(dir, "short.crf")
	if err := WriteDataset(short, make([]float32, 2*10), 10); err != nil {
		t.Fatal(err)
	}
	cfg.Workload.DatasetPath = short
	if _, err := RunStandalone(cfg); err == nil {
		t.Fatal("dataset with the wrong point length accepted")
	}
	path := filepath.Join(dir, "points.crf")
	if err := WriteDataset(path, make([]float32, 3*28*28), 28*28); err != nil {
		t.Fatal(err)
	}
	cfg.Workload.DatasetPath = path
	res, err := RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("standalone consumed nothing from the dataset")
	}
}

func TestStandaloneLatencyBelowBrokerPipeline(t *testing.T) {
	// Figure 13's shape: removing the broker hops lowers end-to-end
	// latency.
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	load := loadgen.Constant(100)
	cfg.Workload.Load = &load
	cfg.Workload.Duration = 400 * time.Millisecond
	viaBroker, err := (&Runner{}).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if standalone.Metrics.Latency.Mean >= viaBroker.Metrics.Latency.Mean {
		t.Logf("standalone %v not below broker %v (acceptable on loaded machines, but unusual)",
			standalone.Metrics.Latency.Mean, viaBroker.Metrics.Latency.Mean)
	}
}
