package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (the estimator numpy and Go's statistics packages
// call "linear"). It returns NaN for no samples; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported figure: its value, its unit, and how many raw
// samples it was derived from (the report line carries the count; the
// final result line carries value and unit only).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metrics accumulates named figures in insertion order.
type metrics struct {
	names []string
	vals  map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name, unit string, v float64, samples int) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// pct records the q-quantile of samples as one metric.
func (m *metrics) pct(name, unit string, samples []float64, q float64) {
	m.set(name, unit, quantile(samples, q), len(samples))
}

// medianOver records the median of per-round values: the run-level
// figure for a metric each round measures once.
func (m *metrics) medianOver(name, unit string, perRound []float64) {
	m.set(name, unit, median(perRound), len(perRound))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ackFromDue returns an acknowledgement's latency measured from its
// batch's due time rather than its send time, so a generator that falls
// behind schedule shows up as latency instead of hiding it. The ack
// observer reports each acked batch's arrival time and its latency since
// the client stamped it; that stamp falls inside the Send call of exactly
// one batch, found as the last send that started at or before it. (The
// stamp is recovered a few hundred nanoseconds late, so the match holds
// while consecutive sends start further apart than that, which pacing
// guarantees unless the generator has fallen a whole batch behind.)
// sendStarts must be ascending; dues is parallel to it. It returns -1 if
// the ack predates every send.
func ackFromDue(ackAt time.Time, sinceSent time.Duration, sendStarts, dues []time.Time) time.Duration {
	sentAt := ackAt.Add(-sinceSent)
	i := sort.Search(len(sendStarts), func(i int) bool { return sendStarts[i].After(sentAt) }) - 1
	if i < 0 {
		return -1
	}
	return ackAt.Sub(dues[i])
}
