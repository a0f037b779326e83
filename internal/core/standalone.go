package core

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/loadgen"
	"crayfish/internal/serving"
)

// RunStandalone executes the Figure 13 baseline: a self-contained
// pipeline that generates data, scores it, and records output timestamps
// in-process, with no message broker between components. The same batch
// serialisation is applied at the pipeline boundary so the comparison
// against the Kafka-based pipeline isolates exactly the broker hops.
// Arrivals follow the workload's Load policy and data points come from
// its dataset, exactly as for the input producer.
func RunStandalone(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dataset, err := openDataset(&cfg.Workload)
	if err != nil {
		return nil, err
	}
	sched, err := cfg.Workload.LoadPolicy().Schedule()
	if err != nil {
		return nil, err
	}
	codec := BatchCodec(JSONCodec{})
	m, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Workload.PointLen() != m.InputLen() {
		return nil, fmt.Errorf("core: workload shape %v does not match model input %v", cfg.Workload.InputShape, m.InputShape)
	}
	scorer, cleanup, err := BuildScorer(cfg.Serving, m, cfg.ParallelismDefault)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	transform := MakeTransform(codec, serving.Instrument(scorer, cfg.Telemetry))

	type item struct{ value []byte }
	pipe := make(chan item, 64)

	var mu sync.Mutex
	var samples []Sample
	var workers sync.WaitGroup
	for w := 0; w < cfg.ParallelismDefault; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for it := range pipe {
				scored, err := transform(it.value)
				if err != nil {
					continue
				}
				end := time.Now()
				b, err := codec.Unmarshal(scored)
				if err != nil {
					continue
				}
				mu.Lock()
				samples = append(samples, Sample{
					ID:      b.ID,
					Start:   b.Created(),
					End:     end,
					Latency: end.Sub(b.Created()),
				})
				mu.Unlock()
			}
		}()
	}

	gen := newDataGenerator(cfg.Workload)
	gen.dataset = dataset
	pacer := loadgen.NewPacer(sched, loadgen.RealClock())
	runStart := pacer.Start()
	deadline := runStart.Add(cfg.Workload.Duration)
	produced := 0
	for time.Now().Before(deadline) {
		if cfg.Workload.MaxEvents > 0 && produced >= cfg.Workload.MaxEvents {
			break
		}
		wait, _, _, ok := pacer.Tick()
		if !ok {
			// Trace replay exhausted its arrivals.
			break
		}
		if wait > 0 {
			pacer.Sleep(wait, nil)
		}
		value, err := codec.Marshal(gen.next(int64(produced)))
		if err != nil {
			close(pipe)
			workers.Wait()
			return nil, err
		}
		pipe <- item{value: value}
		produced++
	}
	close(pipe)
	workers.Wait()

	mu.Lock()
	collected := append([]Sample(nil), samples...)
	mu.Unlock()
	metrics, err := Analyze(collected, produced, cfg.WarmupFraction)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Metrics: metrics, RunStart: runStart}
	if cfg.KeepSamples {
		res.Samples = collected
	}
	if cfg.Telemetry != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
	}
	return res, nil
}
