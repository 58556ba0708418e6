package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"time"

	streamcover "streamcover"
	"streamcover/internal/snapshot"
	"streamcover/internal/stream"
	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

var errShort = errors.New("decoded batch is shorter than the encoded one")

// Layer replay caps: enough calls for a stable per-call figure, few
// enough that the traced run stays well inside its time limit.
const (
	replayWALRecords = 200    // fsynced WAL appends
	replayApplyEdges = 262144 // edges through the single-goroutine apply
	replayReps       = 3      // repetitions of each clone/merge/finalize/snapshot call
)

// layerTimes is what the in-process replay measures, per call.
type layerTimes struct {
	decodeNsPerEdge, wireBytesPerEdge   float64
	walAppendUs, walFsyncMs             []float64
	walBytesPerEdge                     float64
	applyNsPerEdge                      float64
	cloneMs, mergeMs, finalizeMs        []float64
	heapMB                              float64
	encodeMs, writeMs, readMs, decodeMs []float64
	checkpointMB                        float64
}

// timed runs fn and records it as a span under parent.
func timed(tr *tracer, parent int, name string, id int, fn func() error) (float64, error) {
	s := time.Now()
	err := fn()
	e := time.Now()
	tr.span(name, parent, id, s, e)
	return ms(e.Sub(s)), err
}

// replayLayers pushes the round's own batches through the public layer
// calls the daemon makes, one layer at a time, in this process: the wire
// codec, a WAL on the same disk, the estimator facade, and the snapshot
// files.
func replayLayers(pl *plan, sc *schedule, dir string, tr *tracer) (*layerTimes, error) {
	sp := pl.sp
	lt := &layerTimes{}
	root := tr.begin("replay")
	defer tr.end(root)

	// Wire: encode every batch as the client does, then decode it as the
	// server does.
	nb := pl.batches()
	sets := make([][]uint32, nb)
	elems := make([][]uint32, nb)
	payloads := make([][]byte, nb)
	var wireBytes int
	for i := range sets {
		for _, e := range pl.batch(i) {
			sets[i] = append(sets[i], e.Set)
			elems[i] = append(elems[i], e.Elem)
		}
		payloads[i] = wire.EncodeIngestSeqColumns(nil, sessionName(sc.tenant[i]), 1, uint64(i+1), sets[i], elems[i], sp.m, sp.n)
		wireBytes += len(payloads[i])
	}
	lt.wireBytesPerEdge = float64(wireBytes) / float64(len(pl.edges))
	var cols stream.Columns
	var decodeNs []float64
	for rep := 0; rep < replayReps; rep++ {
		s := time.Now()
		for i, p := range payloads {
			if _, _, _, _, _, err := wire.DecodeIngestSeqInto(p, &cols); err != nil {
				return nil, err
			}
			if cols.Len() != len(sets[i]) {
				return nil, errShort
			}
		}
		e := time.Now()
		tr.span("wire.DecodeIngestSeqInto", root, rep, s, e)
		decodeNs = append(decodeNs, float64(e.Sub(s).Nanoseconds())/float64(len(pl.edges)))
	}
	lt.decodeNsPerEdge = median(decodeNs)

	// WAL: the server logs each batch as its frame type byte plus the
	// verbatim payload, and acks once the record is durable.
	wdir := filepath.Join(dir, "wal")
	l, err := wal.Open(wdir, wal.Options{})
	if err != nil {
		return nil, err
	}
	var walBytes, walEdges int
	for i := 0; i < min(nb, replayWALRecords); i++ {
		rec := append([]byte{wire.TIngestSeq}, payloads[i]...)
		s := time.Now()
		_, wait, err := l.AppendStart(rec)
		if err != nil {
			l.Close()
			return nil, err
		}
		a := time.Now()
		if err := wait(); err != nil {
			l.Close()
			return nil, err
		}
		e := time.Now()
		tr.span("wal.AppendStart", root, i, s, a)
		tr.span("wal.wait", root, i, a, e)
		lt.walAppendUs = append(lt.walAppendUs, float64(a.Sub(s).Nanoseconds())/1e3)
		lt.walFsyncMs = append(lt.walFsyncMs, ms(e.Sub(a)))
		walBytes += len(rec) + 8 // record header: length + CRC
		walEdges += len(sets[i])
	}
	l.Close()
	os.RemoveAll(wdir)
	lt.walBytesPerEdge = float64(walBytes) / float64(walEdges)

	// Core: one estimator, one goroutine, fed the round's columns.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	est, err := streamcover.NewEstimator(sp.m, sp.n, sp.k, sp.alpha, streamcover.WithSeed(pl.seed), streamcover.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	defer est.Close()
	applied := 0
	s := time.Now()
	for i := 0; i < nb && applied < replayApplyEdges; i++ {
		if err := est.ProcessColumns(sets[i], elems[i]); err != nil {
			return nil, err
		}
		applied += len(sets[i])
	}
	e := time.Now()
	tr.span("core.ProcessColumns", root, 0, s, e)
	lt.applyNsPerEdge = float64(e.Sub(s).Nanoseconds()) / float64(applied)
	runtime.GC()
	runtime.ReadMemStats(&after)
	lt.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)

	// Query path: clone a worker's estimator, merge another worker's
	// state into the clone, finalize. The replay merges the same state
	// back in, which costs what merging a second shard costs.
	for rep := 0; rep < replayReps; rep++ {
		var c *streamcover.Estimator
		d, err := timed(tr, root, "core.Clone", rep, func() (err error) { c, err = est.Clone(); return })
		if err != nil {
			return nil, err
		}
		lt.cloneMs = append(lt.cloneMs, d)
		d, err = timed(tr, root, "core.Merge", rep, func() error { return c.Merge(est) })
		if err != nil {
			return nil, err
		}
		lt.mergeMs = append(lt.mergeMs, d)
		d, _ = timed(tr, root, "core.Result", rep, func() error { c.Result(); return nil })
		lt.finalizeMs = append(lt.finalizeMs, d)
		c.Close()
	}

	// Snapshot: a checkpoint part's encode, atomic write, read and decode.
	path := filepath.Join(dir, "checkpoint")
	for rep := 0; rep < replayReps; rep++ {
		var blob, read []byte
		d, err := timed(tr, root, "snapshot.Encode", rep, func() (err error) { blob, err = est.Encode(); return })
		if err != nil {
			return nil, err
		}
		lt.encodeMs = append(lt.encodeMs, d)
		lt.checkpointMB = float64(len(blob)) / (1 << 20)
		if d, err = timed(tr, root, "snapshot.WriteFile", rep, func() error { return snapshot.WriteFile(path, blob) }); err != nil {
			return nil, err
		}
		lt.writeMs = append(lt.writeMs, d)
		if d, err = timed(tr, root, "snapshot.ReadFile", rep, func() (err error) { read, err = snapshot.ReadFile(path); return }); err != nil {
			return nil, err
		}
		lt.readMs = append(lt.readMs, d)
		var dec *streamcover.Estimator
		if d, err = timed(tr, root, "snapshot.DecodeEstimator", rep, func() (err error) { dec, err = streamcover.DecodeEstimator(read); return }); err != nil {
			return nil, err
		}
		lt.decodeMs = append(lt.decodeMs, d)
		dec.Close()
	}
	os.Remove(path)
	return lt, nil
}
