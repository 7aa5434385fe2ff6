// Command perfbench is locwatch's benchmark. It runs one workload per
// invocation and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict, request counts and
// metrics: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced in-process replay of the same inputs. See
// README.md in this directory for the workloads and metrics.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// seeds are a run's two seeds. The world is fixed work (a workload's
// population, traces and references); the schedule seed draws the
// generator's Poisson arrivals, so runs with different --seed values do
// the same work under different timing.
type seeds struct{ world, schedule int64 }

// nominalSeed and readSeed seed the write and read schedules; the
// traced run draws the same ones.
func (sd seeds) nominalSeed() int64 { return sd.schedule*7919 + 17 }
func (sd seeds) readSeed() int64    { return sd.schedule*31 + 5 }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// metric names each mode reports, and each service workload's latency
// limit, fixed once there in its "why".
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchFile() (*benchFile, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// selectMetrics keeps the metrics BENCHMARK.json lists for the mode and
// fails if one of them was not measured.
func (bf *benchFile) selectMetrics(traced bool, all map[string]metric) (map[string]metric, error) {
	var names []string
	if traced {
		for _, m := range bf.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range bf.EndToEnd {
			names = append(names, m.Name)
		}
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}

var limitRE = regexp.MustCompile(`p99 limit (\d+(?:\.\d+)?) ms`)

// latencyLimit returns the workload's p99 latency limit in ms.
func (bf *benchFile) latencyLimit(name string) (float64, error) {
	for _, w := range bf.Workloads {
		if w.Name != name {
			continue
		}
		m := limitRE.FindStringSubmatch(w.Why)
		if m == nil {
			return 0, fmt.Errorf("BENCHMARK.json: workload %s states no \"p99 limit <n> ms\"", name)
		}
		return strconv.ParseFloat(m[1], 64)
	}
	return 0, fmt.Errorf("BENCHMARK.json: no workload %s", name)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	mode := "bench"
	if len(args) > 0 && args[0] == "spin" {
		return spinLoop()
	}
	if len(args) > 0 && args[0] == "serve" {
		mode, args = "serve", args[1:]
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "schedule seed: arrival times of the open-loop generator")
	worldSeed := fs.Int64("world-seed", 1, "seed of the synthetic world every workload runs on")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if mode == "serve" {
		return serve(w, *worldSeed)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}

	bf, err := readBenchFile()
	if err != nil {
		return err
	}
	sd := seeds{world: *worldSeed, schedule: *seed}
	var res *result
	switch {
	case *traced == 1:
		res, err = runTraced(w, sd, *seconds)
	case w.service:
		var limit float64
		if limit, err = bf.latencyLimit(w.name); err == nil {
			res, err = runService(w, sd, *seconds, limit)
		}
	default:
		res, err = runFigures(w, sd, *seconds)
	}
	if err != nil {
		return err
	}
	if res.Metrics, err = bf.selectMetrics(*traced == 1, res.Metrics); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness gate failed")
	}
	return nil
}
