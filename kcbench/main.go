// Command kcbench benchmarks kcoverd end to end and layer by layer.
//
// Each run starts fresh kcoverd subprocesses (built from the same
// checkout) and drives one seeded workload through them from this
// process over at most two client connections:
//
//	bash kcbench/run.sh --workload ingest-saturate --seed 1 --seconds 30 --trace 0
//
// A run repeats rounds until --seconds have been spent, each against a
// new daemon with its timer checkpoints off and its WAL fsyncing every
// ack; a round's inputs are a function of the seed and the round's
// index. End-to-end figures are medians over the rounds, latency
// percentiles are taken over every round's samples pooled. Every round's
// final answers must equal a same-seed in-process reference estimator fed
// the exact multiset sent; a mismatch is a failed operation.
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of one untraced
// round, one round with client-side spans, and an in-process replay of
// the round's batches through the wire, WAL, estimator and snapshot
// layers. The line before it is a report with every metric's sample
// count and per-round values, the stream and schedule digests and the
// workload's loop type. --workload all runs the three workloads in turn,
// printing both lines for each.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// minRounds keeps setup_s a median of several daemon starts even when
// --seconds leaves room for fewer rounds.
const minRounds = 3

func main() {
	var (
		wl      = flag.String("workload", "", "workload: ingest-saturate, query-under-ingest, tenant-churn, or all three in turn")
		seed    = flag.Int64("seed", 1, "seed of the generated stream, tenant schedule and estimator")
		seconds = flag.Int("seconds", 20, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		bin     = flag.String("daemon", "", "kcoverd binary")
		work    = flag.String("work", "", "scratch directory for daemon data and traces")
	)
	flag.Parse()
	names := []string{*wl}
	if *wl == "all" {
		names = names[:0]
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	}
	for _, name := range names {
		if err := run(name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
			fmt.Fprintln(os.Stderr, "kcbench:", err)
			os.Exit(1)
		}
	}
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func run(wl string, seed int64, seconds int, traced bool, bin, work string) error {
	sp, err := specByName(wl)
	if err != nil {
		return err
	}
	if bin == "" || work == "" {
		return errors.New("-daemon and -work are required (run through run.sh)")
	}
	if _, err := os.Stat(bin); err != nil {
		return err
	}
	work, err = os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Round r's inputs are a function of (seed, r). Rounds run until the
	// measurement budget is spent, at least minRounds and at most the
	// nominal count plus slack for a fast host.
	nrounds := 1
	if !traced {
		nrounds = max(minRounds, int(math.Ceil(float64(seconds)/sp.roundSec))+1)
	}
	pl, err := newPlan(sp, seed, nrounds)
	if err != nil {
		return err
	}
	dr := &driver{sp: sp, pl: pl, bin: bin, work: work}
	if sp.budgetOf > 0 {
		var total int64
		for _, s := range pl.rounds[0].sizes {
			total += s
		}
		dr.budget = total / int64(sp.budgetOf)
	}

	var rounds []*round
	var perRound map[string][]float64
	m := newMetrics()
	if traced {
		rounds, err = dr.tracedRun(m, filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-seed%d.json", sp.name, seed)))
		if err != nil {
			return err
		}
	} else {
		budget := time.Duration(seconds) * time.Second
		start := time.Now()
		for ri := range pl.rounds {
			// Start another round only if one more of average length fits.
			if ri >= minRounds && time.Since(start)*time.Duration(ri+1)/time.Duration(ri) > budget {
				break
			}
			r := dr.runRound(ri, nil)
			rounds = append(rounds, r)
			if r.failed > 0 {
				break
			}
		}
		perRound = endToEnd(m, rounds)
	}

	res := result{Correct: true, Metrics: map[string]map[string]any{}}
	var lags []float64
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		lags = append(lags, r.lags...)
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "kcbench: FAILED:", e)
		}
	}
	res.Correct = res.Failed == 0
	for _, name := range m.names {
		v := m.vals[name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// No successful round measured it; the failures above already
			// make the run incorrect.
			res.Correct = false
			v.Value = 0
			m.vals[name] = v
		}
		res.Metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	var digests []string
	for _, sc := range pl.rounds {
		digests = append(digests, fmt.Sprintf("%016x", sc.digest))
	}
	report := map[string]any{
		"workload":             sp.name,
		"loop":                 sp.loop(),
		"seed":                 seed,
		"rounds":               len(rounds),
		"stream_digest":        fmt.Sprintf("%016x", pl.streamD),
		"schedule_digests":     digests,
		"edges_per_round":      len(pl.edges),
		"mem_budget":           dr.budget,
		"generator_lag_ms_p90": quantile(lags, 0.9),
		"ops_failed_frac":      float64(res.Failed) / float64(max(1, res.Attempted)),
		"metrics":              m.vals,
		"per_round":            perRound,
	}
	rb, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd turns untraced rounds into the end-to-end metrics. A figure
// each round measures once is the median over rounds; a latency
// percentile is taken over the samples of every round pooled. It returns
// each figure's per-round values for the report.
func endToEnd(m *metrics, rounds []*round) map[string][]float64 {
	per := map[string][]float64{}
	var acks, queries []float64
	for _, r := range rounds {
		if r.failed > 0 {
			continue
		}
		for name, v := range map[string]float64{
			"setup_s":                r.setup.Seconds(),
			"ingest_edges_per_s":     float64(r.sent) / r.ingestWall.Seconds(),
			"final_answer_ms":        ms(r.finalAnswer),
			"ack_p50_ms":             quantile(r.acks, 0.5),
			"ack_p90_ms":             quantile(r.acks, 0.9),
			"query_p50_ms":           quantile(r.queries, 0.5),
			"query_p90_ms":           quantile(r.queries, 0.9),
			"daemon_cpu_s_per_medge": r.cpu / (float64(r.sent) / 1e6),
			"daemon_live_heap_mb":    r.heapMB,
		} {
			if !math.IsNaN(v) {
				per[name] = append(per[name], v)
			}
		}
		acks = append(acks, r.acks...)
		queries = append(queries, r.queries...)
	}
	m.medianOver("setup_s", "s", per["setup_s"])
	m.medianOver("ingest_edges_per_s", "1/s", per["ingest_edges_per_s"])
	m.medianOver("final_answer_ms", "ms", per["final_answer_ms"])
	m.pct("ack_p50_ms", "ms", acks, 0.5)
	m.pct("ack_p90_ms", "ms", acks, 0.9)
	m.pct("query_p50_ms", "ms", queries, 0.5)
	m.pct("query_p90_ms", "ms", queries, 0.9)
	m.medianOver("daemon_cpu_s_per_medge", "s", per["daemon_cpu_s_per_medge"])
	m.medianOver("daemon_live_heap_mb", "MB", per["daemon_live_heap_mb"])
	return per
}
