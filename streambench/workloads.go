package main

import (
	"fmt"

	"crayfish/internal/core"
	"crayfish/internal/netsim"
)

// workload is one benchmark workload: a pipeline configuration, the
// nominal Poisson rate its latency is measured at, and the rate bracket
// its capacity search bisects.
type workload struct {
	name string
	// nominal is the offered rate (events/s) of the latency, failure
	// and allocation measurement.
	nominal float64
	// lo and hi bracket the capacity search (events/s).
	lo, hi float64
	// config builds the pipeline; the launch fills in load, duration
	// and seed.
	config func() core.Config
}

// workloads lists every workload; BENCHMARK.json names the first two.
// None uses more than two operator instances or serving workers, the
// core count of the reference box.
var workloads = []workload{
	// The paper's default pipeline: the JSON codec is most of the
	// operator and the model a few percent, so codec, broker and engine
	// gains show here and model gains should not.
	{
		name:    "ffnn-embedded",
		nominal: 1000, lo: 1000, hi: 4000,
		config: func() core.Config {
			return core.Config{
				Workload:           core.Workload{InputShape: []int{784}, BatchSize: 1},
				Engine:             "flink",
				Serving:            core.ServingConfig{Mode: core.Embedded, Tool: "onnx"},
				Model:              core.ModelSpec{Name: "ffnn"},
				ParallelismDefault: 1,
				Partitions:         4,
				Network:            netsim.Loopback,
			}
		},
	},
	// The model is most of the operator: kernel and plan gains show here.
	{
		name:    "transformer-embedded",
		nominal: 120, lo: 100, hi: 500,
		config: func() core.Config {
			return core.Config{
				Workload:           core.Workload{InputShape: []int{32, 64}, BatchSize: 1},
				Engine:             "flink",
				Serving:            core.ServingConfig{Mode: core.Embedded, Tool: "onnx"},
				Model:              core.ModelSpec{Name: "transformer"},
				ParallelismDefault: 1,
				Partitions:         4,
				Network:            netsim.Loopback,
			}
		},
	},
	// A second engine (kafka-streams' pull loop), external serving over
	// the modelled LAN and 8-point records: RPC and large-record codec
	// costs show here. Not in BENCHMARK.json: its figures are not steady
	// on a two-core VM (README.md, "Spread").
	{
		name:    "external-lan-b8",
		nominal: 100, lo: 100, hi: 600,
		config: func() core.Config {
			return core.Config{
				Workload:           core.Workload{InputShape: []int{784}, BatchSize: 8},
				Engine:             "kafka-streams",
				Serving:            core.ServingConfig{Mode: core.External, Tool: "tf-serving", Workers: 2},
				Model:              core.ModelSpec{Name: "ffnn"},
				ParallelismDefault: 2,
				Partitions:         4,
				Network:            netsim.LAN,
			}
		},
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
