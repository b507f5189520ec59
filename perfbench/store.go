package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/serve"
)

// durableStore is what the benchmark needs of serve's two durable stores
// to set them up and recover them.
type durableStore interface {
	Close() error
	Recovery() serve.RecoveryStats
}

// repeatSetup runs setup setupRounds times from scratch, timing each, and
// keeps the last store, closing and deleting the others. When the run is
// traced, tracing and counting start after set-up.
func repeatSetup[S durableStore](e env, setup func() (S, string, *meteredFS, error)) (S, string, *meteredFS, []float64, error) {
	var d S
	var dir string
	var meter *meteredFS
	var times []float64
	for round := range setupRounds {
		if round > 0 {
			if err := d.Close(); err != nil {
				return d, "", nil, nil, err
			}
			os.RemoveAll(dir)
		}
		settle()
		start := time.Now()
		var err error
		if d, dir, meter, err = setup(); err != nil {
			return d, "", nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	if e.tr != nil {
		e.tr.reset()
		meter.reset()
	}
	return d, dir, meter, times, nil
}

// recoverRounds reopens a closed store recoveryRounds times, timing each
// open, and checks and closes each recovered store. It returns the times
// and what the last recovery read.
func recoverRounds[S durableStore](open func() (S, error), check func(s S, round int) error) ([]float64, serve.RecoveryStats, error) {
	var times []float64
	var rec serve.RecoveryStats
	for round := range recoveryRounds {
		settle()
		start := time.Now()
		s, err := open()
		if err != nil {
			return nil, rec, fmt.Errorf("reopening the store: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		rec = s.Recovery()
		err = check(s, round)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, rec, err
		}
	}
	return times, rec, nil
}

// storeDir makes a fresh directory for a store, and the filesystem the
// store writes it through: metered when the run is traced.
func storeDir(e env, prefix string) (string, serve.FS, *meteredFS, error) {
	dir, err := os.MkdirTemp(e.dir, prefix)
	if err != nil {
		return "", nil, nil, err
	}
	if e.tr == nil {
		return dir, serve.OSFS{Dir: dir}, nil, nil
	}
	meter := newMeteredFS(serve.OSFS{Dir: dir}, e.tr)
	return dir, meter, meter, nil
}

// load applies ops in batches of the given size, all in flight at once,
// and waits until every one is acked.
func load[O any](apply func([]O) (*serve.Future, error), ops []O, batch int) error {
	var futures []*serve.Future
	for i := 0; i < len(ops); i += batch {
		f, err := apply(ops[i:min(i+batch, len(ops))])
		if err != nil {
			return err
		}
		futures = append(futures, f)
	}
	for _, f := range futures {
		if ack := f.Wait(); ack.Err != nil {
			return ack.Err
		}
	}
	return nil
}

// The open loops' shape. Each workload sets its own write rate.
const (
	openShare     = 0.5  // share of a run spent in the open loop
	openReadRate  = 4000 // reads/s
	openReadGroup = 8    // reads due together, so the reader wakes 500 times a second
)

// openLoop offers write batches and reads on fixed schedules for the
// given time: batches from next through apply at writeRate ops/s, one
// goroutine calling read per read. Writes are timed from when they were due; late collects
// how far behind schedule each write and each group of reads was sent.
func openLoop[O any](tr *tracer, apply func([]O) (*serve.Future, error), next func() []O, read func(), writeRate int, dur time.Duration) (recs []batchRec[O], late samples) {
	start := time.Now()
	end := start.Add(dur)
	writeEvery := time.Second * batchLen / time.Duration(writeRate)
	readEvery := time.Second / openReadRate
	type pending struct {
		f   *serve.Future
		rec batchRec[O]
	}
	// The writer hands each submitted batch to the collector, which waits
	// for acks in order; the buffer holds every batch the phase can
	// offer, so the writer never waits on the collector.
	submitted := make(chan pending, int(dur/writeEvery)+1)
	var readLate samples
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		defer close(submitted)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * writeEvery)
			if due.After(end) {
				return
			}
			ops := next()
			time.Sleep(time.Until(due))
			f, rec := submit(tr, apply, ops, due)
			late.add(rec.call.Sub(due))
			submitted <- pending{f, rec}
		}
	}()
	go func() { // collector
		defer wg.Done()
		for p := range submitted {
			finish(tr, p.f, &p.rec)
			recs = append(recs, p.rec)
		}
	}()
	go func() { // reader
		defer wg.Done()
		for g := 0; ; g++ {
			due := start.Add(time.Duration(g) * readEvery * openReadGroup)
			if due.After(end) {
				return
			}
			time.Sleep(time.Until(due))
			readLate.add(time.Since(due))
			for range openReadGroup {
				read()
			}
		}
	}()
	wg.Wait()
	return recs, append(late, readLate...)
}

// batchRec is one write batch as its client saw it.
type batchRec[O any] struct {
	ops   []O
	due   time.Time // when it was due: the schedule in an open loop, the call in a closed one
	call  time.Time // when ApplyAsync was called
	admit time.Duration
	ack   serve.Ack
	err   error // from ApplyAsync or Ack.Err
}

// submit calls ApplyAsync for one batch and records its admission.
func submit[O any](tr *tracer, apply func([]O) (*serve.Future, error), ops []O, due time.Time) (*serve.Future, batchRec[O]) {
	rec := batchRec[O]{ops: ops, due: due, call: time.Now()}
	f, err := apply(ops)
	end := time.Now()
	rec.admit, rec.err = end.Sub(rec.call), err
	return f, rec
}

// finish waits for a batch's ack and records its spans: the request from
// its due time to its commit, admission inside ApplyAsync, and the
// pipeline from enqueue to commit.
func finish[O any](tr *tracer, f *serve.Future, rec *batchRec[O]) {
	if rec.err != nil {
		return
	}
	rec.ack = f.Wait()
	rec.err = rec.ack.Err
	if tr != nil {
		req := tr.newReq()
		tr.record("serve.ApplyAsync", req, req, rec.call, rec.call.Add(rec.admit))
		tr.record("serve.pipeline", req, req, rec.ack.Enqueued, rec.ack.Committed)
		tr.recordRequest("bench.write", req, rec.due, rec.ack.Committed)
	}
}

// pipelined runs one closed-loop client: it keeps up to window batches
// in flight and submits the next as the oldest is acked. after, when not
// nil, runs after each submission.
func pipelined[O any](tr *tracer, apply func([]O) (*serve.Future, error), next func() []O, window, batches int, after func()) []batchRec[O] {
	recs := make([]batchRec[O], 0, batches)
	futures := make([]*serve.Future, 0, batches)
	reaped := 0
	for b := 0; b < batches; b++ {
		now := time.Now()
		f, rec := submit(tr, apply, next(), now)
		recs = append(recs, rec)
		futures = append(futures, f)
		if after != nil {
			after()
		}
		if len(futures)-reaped == window {
			finish(tr, futures[reaped], &recs[reaped])
			reaped++
		}
	}
	for ; reaped < len(futures); reaped++ {
		finish(tr, futures[reaped], &recs[reaped])
	}
	return recs
}

// writeStats sums up acked batches: latency from due time, admission,
// queueing, resolve, and the longest stall with batches pending and none
// acked.
type writeStats struct {
	latency, admit, queue, resolve samples
	acked, ops                     int64
	stallMax                       time.Duration
}

func summarizeWrites[O any](recs []batchRec[O], out *outcome) writeStats {
	var w writeStats
	var ok []batchRec[O]
	for _, r := range recs {
		out.attempted++
		if r.err != nil {
			out.fail("write batch: %v", r.err)
			continue
		}
		ok = append(ok, r)
		w.acked++
		w.ops += int64(len(r.ops))
		w.latency.add(r.ack.Committed.Sub(r.due))
		w.admit.add(r.admit)
		w.queue.add(r.ack.QueueLatency())
		w.resolve.add(r.ack.Committed.Sub(r.ack.Flushed))
	}
	// Acks resolve in sequence order, so in that order each batch waited
	// alone for an ack from its enqueue or the previous ack, whichever
	// came later.
	slices.SortFunc(ok, func(a, b batchRec[O]) int { return cmp.Compare(a.ack.Seq, b.ack.Seq) })
	for i := 1; i < len(ok); i++ {
		from := ok[i-1].ack.Committed
		if ok[i].ack.Enqueued.After(from) {
			from = ok[i].ack.Enqueued
		}
		w.stallMax = max(w.stallMax, ok[i].ack.Committed.Sub(from))
	}
	return w
}

// bySeq returns the acked batches' ops in commit order, the order the
// oracle must apply them in.
func bySeq[O any](recs []batchRec[O]) [][]O {
	var ok []batchRec[O]
	for _, r := range recs {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	slices.SortFunc(ok, func(a, b batchRec[O]) int { return cmp.Compare(a.ack.Seq, b.ack.Seq) })
	out := make([][]O, len(ok))
	for i, r := range ok {
		out[i] = r.ops
	}
	return out
}

// storeStatsMonitor samples a store's shard stats every few milliseconds
// until stopped, keeping the worst flush latency and what sample saw.
type storeStatsMonitor struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	max  time.Duration
}

func monitor(stats func() []serve.ShardStats, extra func()) *storeStatsMonitor {
	m := &storeStatsMonitor{stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			for _, s := range stats() {
				m.mu.Lock()
				m.max = max(m.max, s.FlushLatency)
				m.mu.Unlock()
			}
			if extra != nil {
				extra()
			}
		}
	}()
	return m
}

// done stops the sampler and returns the worst flush latency seen.
func (m *storeStatsMonitor) done() time.Duration {
	close(m.stop)
	m.wg.Wait()
	return m.max
}

// shardSkew is max/mean AppliedOps over the shards.
func shardSkew(stats []serve.ShardStats) float64 {
	var sum, most uint64
	for _, s := range stats {
		sum += s.AppliedOps
		most = max(most, s.AppliedOps)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(stats)) / float64(sum)
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// storeLayerMetrics fills the serve, fs, ckpt and recovery metrics shared
// by the two durable workloads.
func storeLayerMetrics(m map[string]float64, w writeStats, fs *meteredFS, flushMax time.Duration,
	stats []serve.ShardStats, rec serve.RecoveryStats, payload int64) {
	admit, queue, resolve := w.admit.summary(), w.queue.summary(), w.resolve.summary()
	m["serve.admit_p50_us"], m["serve.admit_p99_us"] = us(admit.p50), us(admit.tailVal)
	m["serve.queue_p50_ms"], m["serve.queue_p99_ms"] = ms(queue.p50), ms(queue.tailVal)
	m["serve.resolve_p50_ms"], m["serve.resolve_p99_ms"] = ms(resolve.p50), ms(resolve.tailVal)
	m["serve.flush_latency_max_ms"] = ms(flushMax)
	m["serve.shard_skew"] = shardSkew(stats)
	r := fs.report()
	m["fs.sync_count"] = float64(r.syncs.n)
	m["fs.sync_p50_us"], m["fs.sync_p99_us"] = us(r.syncs.p50), us(r.syncs.tailVal)
	m["fs.syncs_per_batch"] = float64(r.syncs.n) / float64(max(w.acked, 1))
	m["fs.write_bytes"] = float64(r.writeBytes)
	m["fs.write_amp"] = float64(r.writeBytes) / float64(max(payload, 1))
	m["ckpt.count"] = float64(r.ckptWrites.n)
	m["ckpt.compact_count"] = float64(r.compacts)
	m["ckpt.write_p50_ms"], m["ckpt.write_max_ms"] = ms(r.ckptWrites.p50), ms(r.ckptWrites.max)
	var sum int64
	for _, b := range r.ckptSizes {
		sum += b
	}
	m["ckpt.bytes_mean"] = float64(sum) / float64(max(len(r.ckptSizes), 1))
	m["ckpt.ack_stall_max_ms"] = ms(w.stallMax)
	m["recovery.chain_files"] = float64(rec.ChainFiles)
	m["recovery.chain_records"] = float64(rec.ChainRecords)
	m["recovery.wal_batches"] = float64(rec.WALBatches)
}

// joinWrites pools the write samples of two phases.
func joinWrites(a, b writeStats) writeStats {
	return writeStats{
		latency: append(slices.Clone(a.latency), b.latency...),
		admit:   append(slices.Clone(a.admit), b.admit...),
		queue:   append(slices.Clone(a.queue), b.queue...),
		resolve: append(slices.Clone(a.resolve), b.resolve...),
		acked:   a.acked + b.acked, ops: a.ops + b.ops,
		stallMax: max(a.stallMax, b.stallMax),
	}
}

// loadgenMetrics reports whether an open loop kept its schedule, and its
// writes' latency from their due time.
func loadgenMetrics(m map[string]float64, open writeStats, late samples, reads int) {
	lt, lat := late.summary(), open.latency.summary()
	m["loadgen.late_p99_ms"], m["loadgen.late_max_ms"] = ms(lt.tailVal), ms(lt.max)
	m["loadgen.writes"] = float64(open.acked)
	m["loadgen.reads"] = float64(reads)
	m["loadgen.write_p50_ms"], m["loadgen.write_p99_ms"] = ms(lat.p50), ms(lat.tailVal)
}

// fsBusy is the wall time covered by filesystem calls, in seconds.
func fsBusy(tr *tracer) float64 {
	var ivs []interval
	for _, s := range tr.spans {
		if s.layer() == "fs" {
			ivs = append(ivs, interval{s.start, s.end})
		}
	}
	return float64(length(union(ivs))) / 1e9
}
