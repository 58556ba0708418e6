package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"streamcover/internal/client"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample p90 = %v, want 7", got)
	}
}

func TestMetricsRecordSampleCounts(t *testing.T) {
	m := newMetrics()
	m.pct("ack_p90_ms", "ms", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9)
	m.medianOver("setup_s", "s", []float64{0.9, 1.1, 1.0})
	m.set("ack_p90_ms", "ms", 42, 3) // overwrite keeps the first position
	if len(m.names) != 2 || m.names[0] != "ack_p90_ms" || m.names[1] != "setup_s" {
		t.Fatalf("names = %v", m.names)
	}
	if v := m.vals["setup_s"]; v.Value != 1.0 || v.Samples != 3 || v.Unit != "s" {
		t.Errorf("setup_s = %+v", v)
	}
	if v := m.vals["ack_p90_ms"]; v.Value != 42 || v.Samples != 3 {
		t.Errorf("ack_p90_ms = %+v", v)
	}
	m.pct("q", "ms", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9)
	if v := m.vals["q"]; v.Value != 10 || v.Samples != 11 {
		t.Errorf("p90 of 1..11 = %+v, want 10 over 11 samples", v)
	}
}

func TestAckFromDueChargesGeneratorLateness(t *testing.T) {
	t0 := time.Now()
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// Batches due every 100ms; the generator sends batch 0 on time and
	// batch 1 30ms late (a stall), batch 2 on time.
	dues := []time.Time{at(0), at(100), at(200)}
	starts := []time.Time{at(0.01), at(130), at(200.01)}

	// Batch 1: stamped inside its Send at 130.005, acked at 135. Its
	// latency from the due time is 35ms, of which 30 the generator owes.
	got := ackFromDue(at(135), at(135).Sub(at(130.005)), starts, dues)
	if math.Abs(ms(got)-35) > 1e-6 {
		t.Errorf("late batch latency = %v, want 35ms", got)
	}
	// Batch 0, acked after batch 1 was already sent: still batch 0.
	got = ackFromDue(at(140), at(140).Sub(at(0.02)), starts, dues)
	if math.Abs(ms(got)-140) > 1e-6 {
		t.Errorf("slow ack latency = %v, want 140ms", got)
	}
	// Stamped exactly at a send start: that batch.
	got = ackFromDue(at(203), at(203).Sub(at(200.01)), starts, dues)
	if math.Abs(ms(got)-3) > 1e-6 {
		t.Errorf("batch 2 latency = %v, want 3ms", got)
	}
	if got := ackFromDue(at(1), time.Second, starts, dues); got != -1 {
		t.Errorf("ack stamped before every send = %v, want -1", got)
	}
}

func testSpec() *spec {
	return &spec{name: "t", m: 60, n: 500, k: 5, avgSize: 20, alpha: 4,
		sessions: 3, skew: 1.1, workers: 1, batch: 64, rate: 1000, roundEdges: 2048}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	mk := func(seed int64) *plan {
		p, err := newPlan(testSpec(), seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := mk(7), mk(7), mk(8)
	if a.streamD != b.streamD || a.rounds[1].digest != b.rounds[1].digest {
		t.Error("same seed gave different digests")
	}
	if a.streamD == c.streamD || a.rounds[0].digest == c.rounds[0].digest {
		t.Error("different seeds gave the same digests")
	}
	if a.rounds[0].digest == a.rounds[1].digest {
		t.Error("rounds of a multi-tenant run share one schedule")
	}
	if a.batches() != 32 || len(a.rounds[0].tenant) != 32 {
		t.Fatalf("batches = %d, schedule = %d, want 32", a.batches(), len(a.rounds[0].tenant))
	}
	total := 0
	for tn := 0; tn < 3; tn++ {
		total += len(a.tenantEdges(a.rounds[0], tn))
		if got, want := a.rounds[0].refs[tn].Edges, len(a.tenantEdges(a.rounds[0], tn)); got != want {
			t.Errorf("tenant %d reference saw %d edges, its schedule sends %d", tn, got, want)
		}
	}
	if total != len(a.edges) {
		t.Errorf("tenant multisets hold %d edges, the round sends %d", total, len(a.edges))
	}
}

func TestReferenceGateFlagsCorruptAnswers(t *testing.T) {
	pl, err := newPlan(testSpec(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := pl.rounds[0].refs[0]
	good := client.Result{Coverage: ref.Coverage, Feasible: ref.Feasible, Edges: ref.Edges,
		SetIDs: append([]uint32(nil), ref.SetIDs...), SpaceWords: 12345}
	if err := checkAnswer(ref, good); err != nil {
		t.Fatalf("faithful answer rejected: %v", err)
	}
	if len(ref.SetIDs) == 0 {
		t.Fatal("reference reported no sets")
	}
	corrupt := map[string]func(*client.Result){
		"coverage": func(r *client.Result) { r.Coverage++ },
		"feasible": func(r *client.Result) { r.Feasible = !r.Feasible },
		"edges":    func(r *client.Result) { r.Edges-- },
		"set ids":  func(r *client.Result) { r.SetIDs[0] ^= 1 },
		"sets cut": func(r *client.Result) { r.SetIDs = r.SetIDs[1:] },
	}
	for name, mutate := range corrupt {
		bad := good
		bad.SetIDs = append([]uint32(nil), good.SetIDs...)
		mutate(&bad)
		if err := checkAnswer(ref, bad); err == nil {
			t.Errorf("corrupted %s passed the reference gate", name)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 250 and 50 ticks; the command
	// name holds a space and a parenthesis.
	line := "1234 (kco verd) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 8 0 100 0 0"
	got, err := parseStatCPU(line)
	if err != nil || got != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}

func TestParseMemStats(t *testing.T) {
	prof := strings.Join([]string{
		"heap profile: 1: 2 [3: 4] @ heap/1048576",
		"# runtime.MemStats",
		"# Alloc = 1000",
		"# TotalAlloc = 5000",
		"# HeapAlloc = 1000",
		"# PauseNs = [1 2 3]",
		"# GCCPUFraction = 0.0125",
	}, "\n")
	got, err := parseMemStats(strings.NewReader(prof))
	if err != nil {
		t.Fatal(err)
	}
	if got["HeapAlloc"] != 1000 || got["TotalAlloc"] != 5000 || got["GCCPUFraction"] != 0.0125 {
		t.Errorf("parsed %v", got)
	}
	if _, ok := got["PauseNs"]; ok {
		t.Error("list-valued line parsed as a number")
	}
	if _, err := parseMemStats(strings.NewReader("# Alloc = 1")); err == nil {
		t.Error("profile without HeapAlloc accepted")
	}
}
