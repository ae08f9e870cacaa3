// Command tickbench is the repository's end-to-end benchmark of the
// controller tick. It drives core.Controller.Step (core.StepAll for a
// fleet) in closed loop over simulated time at Ts = 30 s — one caller
// issues each tick when the previous one returns — with hourly price ticks
// and a demand-response schedule, checks every tick's outputs, and prints
// the metrics named in BENCHMARK.json at the repository root.
//
// Usage, from the repository root:
//
//	bash tickbench/run.sh --workload paper-day --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it runs the same seed untraced and then traced, replays every
// tick through the layers' public functions, reports the per-layer metrics
// and writes the spans as JSON lines under --spans-dir. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit status is 1 when an output check, the quality
// agreement between the two runs or the replay's bit-identity fails, and 2
// on bad arguments. LAYERS.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// report is the machine-readable result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("tickbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-day, scale-hourly or fleet-day")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "minimum measured wall time of the untraced run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	frozen := fs.Bool("frozen-demand", false, "hold the tick-0 demand for the whole untraced run (traffic comparison)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupSpec(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "tickbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		return 2
	}

	var rep *report
	var rows []metric
	if *trace == 0 {
		if *frozen {
			fw := *w
			fw.frozen = true
			w = &fw
		}
		rep, rows, err = untracedReport(w, *seed, *seconds)
	} else {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		rep, rows, err = tracedReport(w, *seed, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tickbench:", err)
		return 1
	}
	fmt.Printf("%-28s %16s  %-6s %s\n", "metric", "value", "unit", "n")
	for _, m := range rows {
		fmt.Printf("%-28s %16.6g  %-6s %d\n", m.name, m.value, m.unit, m.n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tickbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func newReport(rows []metric, attempted, failed int) *report {
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range rows {
		if !m.tableOnly {
			rep.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	return rep
}

// untracedReport measures the end-to-end metrics.
func untracedReport(w *spec, seed int64, seconds float64) (*report, []metric, error) {
	res, err := setup(w, seed, w.setupReps)
	if err != nil {
		return nil, nil, err
	}
	defer res.sys.close()
	if err := res.run(seconds, ticksPerDay); err != nil {
		return nil, nil, err
	}
	fmt.Printf("workload=%s seed=%d %s\n", w.name, seed, res.describe())
	if res.rec.firstFail != "" {
		fmt.Fprintln(os.Stderr, "tickbench: output check failed:", res.rec.firstFail)
	}
	rows := res.endToEnd()
	return newReport(rows, res.attempted, res.failed), rows, nil
}

// tracedReport runs the seed untraced and traced over the quality horizon
// and measures the per-layer metrics.
func tracedReport(w *spec, seed int64, spans string) (*report, []metric, error) {
	base, err := setup(w, seed, 1)
	if err != nil {
		return nil, nil, err
	}
	err = base.run(0, w.horizon)
	base.sys.close()
	if err != nil {
		return nil, nil, err
	}
	tr, err := traced(w, seed)
	if err != nil {
		return nil, nil, err
	}
	attempted, failed := w.horizon, tr.rec.q.failed
	if tr.rec.firstFail != "" {
		fmt.Fprintln(os.Stderr, "tickbench: output check failed:", tr.rec.firstFail)
	}
	if tr.mismatch != "" {
		fmt.Fprintln(os.Stderr, "tickbench: replay failed:", tr.mismatch)
		failed++
	}
	if !sameQuality(base.rec.q, tr.rec.q) {
		fmt.Fprintln(os.Stderr, "tickbench: quality metrics differ between the untraced and the traced run")
		failed++
	}
	if err := tr.writeSpans(spans); err != nil {
		return nil, nil, err
	}
	fmt.Printf("workload=%s seed=%d traced ticks=%d spans=%d -> %s\n", w.name, seed, w.horizon, len(tr.tr.spans), spans)
	rows := tr.perLayer(base)
	return newReport(rows, attempted, failed), rows, nil
}
