package core_test

import (
	"context"
	"fmt"

	"ipusim/internal/core"
	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// ExampleNew builds an IPU simulator on a small geometry and replays a
// synthetic slice of the paper's wdev0 trace.
func ExampleNew() {
	cfg := core.DefaultConfig()
	cfg.Flash = flash.DefaultConfig()
	cfg.Flash.Blocks = 512
	cfg.Flash.LogicalSubpages = cfg.Flash.MLCSubpages() * 3 / 4
	cfg.Scheme = "IPU"

	sim, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	tr, err := trace.Generate(trace.Profiles["wdev0"], 1, 0.002)
	if err != nil {
		panic(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s on %s: %d requests, latency recorded: %v\n",
		res.Scheme, res.Trace, res.Requests, res.AvgLatency > 0)
	// Output: IPU on wdev0: 2286 requests, latency recorded: true
}

// ExampleRunMatrixContext fans a two-scheme comparison across the worker pool.
func ExampleRunMatrixContext() {
	fc := flash.DefaultConfig()
	fc.Blocks = 512
	fc.LogicalSubpages = fc.MLCSubpages() * 3 / 4
	results, err := core.RunMatrixContext(context.Background(), core.MatrixSpec{
		Traces:  []string{"ads"},
		Schemes: []string{"Baseline", "IPU"},
		Scale:   0.002,
		Flash:   &fc,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s/%s ran %d requests\n", r.Trace, r.Scheme, r.Requests)
	}
	// Output:
	// ads/Baseline ran 3064 requests
	// ads/IPU ran 3064 requests
}
