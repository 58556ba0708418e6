package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"streamcover/internal/client"
)

// round is everything one round measures: one fresh daemon, setup, the
// workload's drive, the final answers and the daemon's cost over it.
type round struct {
	setup       time.Duration // daemon exec → every Create acked
	sent        int
	ingestWall  time.Duration // first send → every final answer in
	finalAnswer time.Duration // last ack → every final answer in
	genWall     time.Duration // first send → last Send returned
	sendBusy    time.Duration // summed time inside Session.Send
	acks        []float64     // ms, from each batch's due time (closed loop: its send)
	queries     []float64     // ms
	lags        []float64     // ms the generator started each Send past its due time
	creates     []float64     // ms per Create round trip
	cpu         float64       // daemon CPU seconds over the drive
	heapMB      float64       // daemon HeapAlloc after a forced GC at the end
	c0, c1      map[string]int64
	m0, m1      map[string]float64
	attempted   int
	failed      int
	errs        []string
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

type ackRec struct {
	at time.Time
	d  time.Duration
}

// driver runs rounds of one workload against fresh daemons.
type driver struct {
	sp     *spec
	pl     *plan
	bin    string
	work   string
	budget int64 // -mem-budget bytes, 0 for none
}

func (dr *driver) daemonFlags() []string {
	f := []string{"-workers", strconv.Itoa(dr.sp.workers)}
	if dr.budget > 0 {
		f = append(f, "-mem-budget", strconv.FormatInt(dr.budget, 10))
	}
	return f
}

// runRound drives round ri. tr, when non-nil, records client-side spans.
func (dr *driver) runRound(ri int, tr *tracer) *round {
	sp, pl, sc := dr.sp, dr.pl, dr.pl.rounds[ri]
	r := &round{}
	dir, err := os.MkdirTemp(dr.work, "data-")
	if err != nil {
		r.attempted++
		r.fail("data directory: %v", err)
		return r
	}
	t0 := time.Now()
	d, err := startDaemon(dr.bin, dir, dr.daemonFlags()...)
	if err != nil {
		r.attempted++
		r.fail("start daemon: %v", err)
		return r
	}
	defer func() {
		d.stop()
		if r.failed > 0 {
			fmt.Fprintf(os.Stderr, "kcbench: kcoverd log of the failed round:\n%s", d.log.String())
		}
	}()

	var amu sync.Mutex
	acks := make([]ackRec, 0, pl.batches())
	opts := []client.Option{
		client.WithBatchSize(sp.batch),
		client.WithReconnect(100),
		client.WithBackoff(20*time.Millisecond, 500*time.Millisecond),
		client.WithDialTimeout(5 * time.Second),
		client.WithAckObserver(func(_ int, since time.Duration) {
			amu.Lock()
			acks = append(acks, ackRec{at: time.Now(), d: since})
			amu.Unlock()
		}),
	}
	if sp.rate > 0 {
		// An open-loop batch must reach the wire at its due time, not sit
		// in the client's write buffer until the pipeline window fills.
		opts = append(opts, client.WithFlushInterval(time.Millisecond))
	}
	cl, err := client.Dial(d.ingest, opts...)
	if err != nil {
		r.attempted++
		r.fail("dial: %v", err)
		return r
	}
	defer cl.Close()
	sess := make([]*client.Session, sp.sessions)
	for t := range sess {
		r.attempted++
		s := time.Now()
		sess[t], err = cl.Create(sessionName(t), sp.m, sp.n, sp.k, sp.alpha, pl.seed)
		tr.span("client.Create", 0, t, s, time.Now())
		r.creates = append(r.creates, ms(time.Since(s)))
		if err != nil {
			r.fail("create %d: %v", t, err)
			return r
		}
	}
	r.setup = time.Since(t0)

	if r.c0, err = d.counters(); err == nil {
		r.m0, err = d.memStats()
	}
	cpu0, err2 := d.cpuSeconds()
	if err = errors.Join(err, err2); err != nil {
		r.fail("scrape before drive: %v", err)
		return r
	}

	// The query caller gets the second connection and runs open loop:
	// query i is due at start + i·queryEvery and is timed from then. It
	// keeps its own tallies, merged into the round once it has stopped.
	var qwg sync.WaitGroup
	ingestDone := make(chan struct{})
	q := &round{}
	if sp.queryEvery > 0 {
		qc, err := client.Dial(d.ingest, client.WithDialTimeout(5*time.Second))
		if err != nil {
			r.attempted++
			r.fail("dial query connection: %v", err)
			return r
		}
		defer qc.Close()
		qs := qc.Session(sessionName(0))
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			qstart := time.Now()
			for i := 0; ; i++ {
				due := qstart.Add(time.Duration(i) * sp.queryEvery)
				select {
				case <-ingestDone:
					return
				case <-time.After(time.Until(due)):
				}
				s := time.Now()
				res, err := qs.Query()
				e := time.Now()
				tr.span("client.Query", 0, i, s, e)
				q.attempted++
				if err != nil {
					q.fail("query %d under ingest: %v", i, err)
					return
				}
				if res.Edges > len(pl.edges) {
					q.fail("query %d under ingest saw %d edges, more than the %d sent", i, res.Edges, len(pl.edges))
				}
				q.queries = append(q.queries, ms(e.Sub(due)))
			}
		}()
	}

	// The generator. Open loop: batch i is due at start + i·batch/rate
	// whether or not earlier batches were acked. Closed loop: each batch
	// is sent once the previous one is acked, and its ack latency runs
	// from its Send to the Flush that waits for the ack. (A pipelined
	// send's ack would wait behind the client's whole in-flight window.)
	nb := pl.batches()
	dues := make([]time.Time, nb)
	starts := make([]time.Time, nb)
	start := time.Now()
	var sendErr error
	for i := 0; i < nb; i++ {
		due := time.Now()
		if sp.rate > 0 {
			due = start.Add(time.Duration(float64(i*sp.batch) / sp.rate * float64(time.Second)))
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
		}
		s := time.Now()
		dues[i], starts[i] = due, s
		r.lags = append(r.lags, max(0, ms(s.Sub(due))))
		b := pl.batch(i)
		r.attempted++
		sendErr = sess[sc.tenant[i]].Send(b)
		e := time.Now()
		tr.span("client.Send", 0, i, s, e)
		r.sendBusy += e.Sub(s)
		if sendErr == nil && sp.rate == 0 {
			// Closed loop: the next batch waits for this one's ack.
			sendErr = sess[sc.tenant[i]].Flush()
			fe := time.Now()
			tr.span("client.Flush", 0, i, e, fe)
			e = fe
		}
		if sendErr != nil {
			r.fail("send batch %d: %v", i, sendErr)
			break
		}
		r.sent += len(b)
		if sp.rate == 0 {
			r.acks = append(r.acks, ms(e.Sub(s)))
		}
	}
	r.genWall = time.Since(start)
	if sendErr == nil {
		for t, s := range sess {
			fs := time.Now()
			if err := s.Flush(); err != nil {
				r.attempted++
				r.fail("flush tenant %d: %v", t, err)
				break
			}
			tr.span("client.Flush", 0, t, fs, time.Now())
		}
	}
	close(ingestDone)
	qwg.Wait()
	queriesDone := time.Now()
	r.attempted += q.attempted
	r.failed += q.failed
	r.errs = append(r.errs, q.errs...)
	r.queries = q.queries
	if r.failed > 0 {
		return r
	}
	amu.Lock()
	lastAck := acks[len(acks)-1].at
	if sp.rate > 0 {
		for _, a := range acks {
			if l := ackFromDue(a.at, a.d, starts, dues); l >= 0 {
				r.acks = append(r.acks, ms(l))
			}
		}
	}
	amu.Unlock()

	// Final answers: every tenant's answer must cover exactly what was
	// sent to it. Queries queue behind the shard workers' pending
	// batches, so the first answer normally already does.
	got := make([]client.Result, sp.sessions)
	for t, s := range sess {
		want := sc.refs[t].Edges
		for attempt := 0; ; attempt++ {
			r.attempted++
			qs := time.Now()
			res, err := s.Query()
			qe := time.Now()
			tr.span("client.Query", 0, -1-t, qs, qe)
			if err != nil {
				r.fail("final answer tenant %d: %v", t, err)
				return r
			}
			if sp.sessions > 1 {
				r.queries = append(r.queries, ms(qe.Sub(qs)))
			}
			if res.Edges == want || attempt == 100 {
				got[t] = res
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	final := time.Now()
	// A background query still running at the last ack holds the shard
	// workers; the final answer's clock starts once it is done.
	r.finalAnswer = final.Sub(lastAck)
	if sp.queryEvery > 0 {
		r.finalAnswer = final.Sub(queriesDone)
	}
	r.ingestWall = final.Sub(start)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		r.fail("scrape after drive: %v", err)
		return r
	}
	r.cpu = cpu1 - cpu0
	for i := 0; i < sp.postQuery; i++ {
		r.attempted++
		qs := time.Now()
		if _, err := sess[0].Query(); err != nil {
			r.fail("quiescent query %d: %v", i, err)
			return r
		}
		tr.span("client.Query", 0, 1000+i, qs, time.Now())
		r.queries = append(r.queries, ms(time.Since(qs)))
	}

	r.m1, err = d.memStats()
	if err == nil {
		r.c1, err = d.counters()
	}
	if err != nil {
		r.fail("scrape after drive: %v", err)
		return r
	}
	r.heapMB = r.m1["HeapAlloc"] / (1 << 20)

	for t := range got {
		if err := checkAnswer(sc.refs[t], got[t]); err != nil {
			r.fail("tenant %d: %v", t, err)
		}
	}
	// Background work is pinned: with timer checkpoints off, the only
	// checkpoints are each session's initial one and one per eviction.
	if want := int64(sp.sessions) + r.c1["evictions_total"]; r.c1["checkpoints"] != want {
		r.fail("daemon wrote %d checkpoints, the workload implies %d (%d sessions + %d evictions)",
			r.c1["checkpoints"], want, sp.sessions, r.c1["evictions_total"])
	}
	return r
}
