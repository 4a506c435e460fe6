// Endurance demo: the reliability side of the paper in miniature.
//
// It sweeps the device use stage (P/E cycles) and prints how raw bit
// error rate and read latency grow (Figs. 2, 13, 14), comparing the MGA
// and IPU schemes at each stage.
//
//	go run ./examples/endurance
package main

import (
	"fmt"
	"log"

	"ipusim/internal/core"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

func main() {
	pes := []int{1000, 2000, 4000, 8000}

	fmt.Println("-- scheme comparison across device use stages --")
	tr, err := trace.Generate(trace.Profiles["wdev0"], 7, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s  %10s %12s  %10s %12s\n", "P/E", "MGA BER", "MGA read", "IPU BER", "IPU read")
	for _, pe := range pes {
		row := make(map[string]*core.Result)
		for _, sc := range []string{"MGA", "IPU"} {
			cfg := core.DefaultConfig()
			cfg.Scheme = sc
			cfg.Flash.PEBaseline = pe
			sim, err := core.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run(tr)
			if err != nil {
				log.Fatal(err)
			}
			row[sc] = res
		}
		fmt.Printf("%6d  %10.2e %12s  %10.2e %12s\n", pe,
			row["MGA"].ReadErrorRate, metrics.FormatDuration(row["MGA"].AvgReadLatency),
			row["IPU"].ReadErrorRate, metrics.FormatDuration(row["IPU"].AvgReadLatency))
	}
}
