package main

import "time"

// tracedRun measures the per-layer metrics: one untraced round (server
// counters, and the baseline for the tracing overhead), the same seeded
// round again with client-side spans, then an in-process replay of its
// batches through each layer. Spans are written to tracePath.
func (dr *driver) tracedRun(m *metrics, tracePath string) ([]*round, error) {
	sp := dr.sp
	plain := dr.runRound(0, nil)
	tr := newTracer()
	root := tr.begin("round") // span 0: the parent of every client span
	traced := dr.runRound(0, tr)
	tr.end(root)
	rounds := []*round{plain, traced}
	if plain.failed > 0 || traced.failed > 0 {
		return rounds, nil
	}
	lt, err := replayLayers(dr.pl, dr.pl.rounds[0], dr.work, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}

	sends := tr.durations("client.Send")
	m.pct("client.create_ms_p50", "ms", traced.creates, 0.5)
	m.set("client.send_blocked_frac", "fraction", traced.sendBusy.Seconds()/traced.genWall.Seconds(), len(sends))
	m.pct("client.generator_lag_ms_p90", "ms", traced.lags, 0.9)

	m.set("wire.decode_ns_per_edge", "ns", lt.decodeNsPerEdge, replayReps)
	m.set("wire.bytes_per_edge", "B", lt.wireBytesPerEdge, dr.pl.batches())

	m.pct("wal.append_us_p50", "us", lt.walAppendUs, 0.5)
	m.pct("wal.fsync_wait_ms_p50", "ms", lt.walFsyncMs, 0.5)
	m.pct("wal.fsync_wait_ms_p90", "ms", lt.walFsyncMs, 0.9)
	m.set("wal.bytes_per_edge", "B", lt.walBytesPerEdge, len(lt.walFsyncMs))

	m.set("core.apply_ns_per_edge", "ns", lt.applyNsPerEdge, 1)
	m.pct("core.clone_ms", "ms", lt.cloneMs, 0.5)
	m.pct("core.merge_ms", "ms", lt.mergeMs, 0.5)
	m.pct("core.finalize_ms", "ms", lt.finalizeMs, 0.5)
	m.set("core.heap_mb", "MB", lt.heapMB, 1)

	m.pct("snapshot.encode_ms", "ms", lt.encodeMs, 0.5)
	m.pct("snapshot.write_ms", "ms", lt.writeMs, 0.5)
	m.pct("snapshot.read_ms", "ms", lt.readMs, 0.5)
	m.pct("snapshot.decode_ms", "ms", lt.decodeMs, 0.5)
	m.set("snapshot.checkpoint_mb", "MB", lt.checkpointMB, replayReps)
	m.set("snapshot.heap_per_checkpoint", "ratio", lt.heapMB/lt.checkpointMB, 1)

	c0, c1 := plain.c0, plain.c1
	wall := plain.ingestWall.Seconds()
	m.set("server.worker_busy_frac", "fraction",
		float64(c1["batch_nanos"]-c0["batch_nanos"])/1e9/(float64(sp.workers)*wall), 1)
	m.set("server.evictions", "count", float64(c1["evictions_total"]), 1)
	m.set("server.rehydrations", "count", float64(c1["rehydrations_total"]), 1)
	m.set("server.checkpoints", "count", float64(c1["checkpoints"]), 1)
	m.set("server.retry_rejects", "count", float64(c1["busy_rejects"]+c1["rehydrate_rejects"]), 1)
	medges := float64(plain.sent) / 1e6
	m.set("server.alloc_mb_per_medge", "MB", (plain.m1["TotalAlloc"]-plain.m0["TotalAlloc"])/(1<<20)/medges, 1)
	m.set("server.gc_cpu_frac", "fraction", plain.m1["GCCPUFraction"], 1)

	// The share of end-to-end time no layer span covers. Open loop: an
	// ack's latency against the steps it waits for in turn: its send,
	// decode, WAL append and fsync wait, plus its share of the evictions
	// (encode, write) and rehydrations (read, decode) the round's touches
	// caused. Closed loop: an edge's share of the run against the slowest
	// pipeline stage, since the connection's decode and WAL work overlaps
	// the shard workers' apply. The ratio is not clamped: a negative value
	// means the replayed stage ran slower than the daemon did.
	var covered, e2e float64
	if sp.rate > 0 {
		e2e = quantile(plain.acks, 0.5)
		churn := float64(c1["evictions_total"])*(quantile(lt.encodeMs, 0.5)+quantile(lt.writeMs, 0.5)) +
			float64(c1["rehydrations_total"])*(quantile(lt.readMs, 0.5)+quantile(lt.decodeMs, 0.5))
		covered = quantile(sends, 0.5) + lt.decodeNsPerEdge*float64(sp.batch)/1e6 +
			quantile(lt.walAppendUs, 0.5)/1e3 + quantile(lt.walFsyncMs, 0.5) + churn/float64(dr.pl.batches())
	} else {
		e2e = 1e9 * wall / float64(plain.sent)
		covered = max(lt.applyNsPerEdge/float64(sp.workers),
			lt.decodeNsPerEdge+(quantile(lt.walAppendUs, 0.5)*1e3+quantile(lt.walFsyncMs, 0.5)*1e6)/float64(sp.batch))
	}
	m.set("trace.unattributed_frac", "fraction", 1-covered/e2e, 1)
	m.set("trace.overhead_frac", "fraction",
		float64(traced.ingestWall-plain.ingestWall)/float64(max(plain.ingestWall, time.Nanosecond)), 2)
	return rounds, nil
}
