package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/pam"
	"repro/rangetree"
	"repro/serve"
)

// The spatial workload's fixed settings.
const (
	spCheckpointEvery = 256                   // batches between automatic (whole-file) checkpoints
	spBurstBatches    = 4 * spCheckpointEvery // 1024: enough for a p99 per burst
	spWindow          = 4                     // async batches the one writer keeps in flight
	// spWriteRate is the open loop's offered write ops/s: a sixth of the
	// closed-loop capacity, so the one carry worker keeps up even when the
	// host slows and rectangle reads measure queries, not carry lag.
	spWriteRate    = 8000
	spPreloadBatch = 4096
	spChecks       = 64 // sampled rectangles checked against brute force
	spBursts       = 12 // closed-loop bursts in a 15 s run
)

// spSplits cuts the unit square into two range shards at x = 0.5.
var spSplits = []float64{0.5}

func openSpatial(fs serve.FS) (*serve.DurablePointStore, error) {
	return serve.OpenDurablePointStore(pam.Options{}, spSplits, serve.DurableConfig{
		FS: fs, CheckpointEvery: spCheckpointEvery, Tuning: serve.Tuning{CarryWorkers: 1}})
}

// setupSpatial creates a point store in a fresh directory, preloads it
// and checkpoints it.
func setupSpatial(e env, pts []rangetree.Weighted) (*serve.DurablePointStore, string, *meteredFS, error) {
	dir, fs, meter, err := storeDir(e, "spatial-")
	if err != nil {
		return nil, "", nil, err
	}
	d, err := openSpatial(fs)
	if err != nil {
		return nil, "", nil, err
	}
	ops := make([]serve.PointOp, len(pts))
	for i, w := range pts {
		ops[i] = serve.InsertPoint(w.Point, w.W)
	}
	if err := load(d.ApplyAsync, ops, spPreloadBatch); err != nil {
		d.Close()
		return nil, "", nil, err
	}
	if _, err := d.Checkpoint(); err != nil {
		d.Close()
		return nil, "", nil, err
	}
	return d, dir, meter, nil
}

// spatialReads times ReaderView rectangle reads: QuerySum through each
// shard's range tree, and QueryCount through the view.
type spatialReads struct {
	tr        *tracer
	d         *serve.DurablePointStore
	rects     func() rangetree.Rect
	n         int
	errs      int
	times     readTimes
	shardSums samples
}

func (r *spatialReads) read() {
	rect := r.rects()
	t0 := time.Now()
	v, err := r.d.ReaderView()
	t1 := time.Now()
	if err != nil {
		r.errs++
		return
	}
	req := r.tr.newReq()
	if r.n%2 == 0 {
		for i := range v.NumShards() {
			s := time.Now()
			v.Shard(i).QuerySum(rect)
			e := time.Now()
			r.shardSums.add(e.Sub(s))
			r.tr.record("rangetree.QuerySum", req, req, s, e)
		}
	} else {
		v.QueryCount(rect)
	}
	t2 := time.Now()
	r.n++
	r.times.total.add(t2.Sub(t0))
	r.times.view.add(t1.Sub(t0))
	r.times.query.add(t2.Sub(t1))
	if r.tr != nil {
		r.tr.record("serve.ReaderView", req, req, t0, t1)
		r.tr.record("serve.view_query", req, req, t1, t2)
		r.tr.recordRequest("bench.read", req, t0, t2)
	}
}

func runSpatial(e env) (*outcome, error) {
	out := newOutcome()
	var pts []rangetree.Weighted
	d, dir, meter, setups, err := repeatSetup(e, func() (*serve.DurablePointStore, string, *meteredFS, error) {
		pts = genPoints(e.seed, spPreload)
		return setupSpatial(e, pts)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("inputs digest=%s\n", spatialDigest(e.seed, pts))

	// The ladder's shape, sampled beside the run.
	var mu sync.Mutex
	var levels, levelRecords, pendingMax int64
	mon := monitor(d.Stats, func() {
		v, err := d.ReaderView()
		if err != nil {
			return
		}
		var lv, recs, pending int64
		for i := range v.NumShards() {
			t := v.Shard(i)
			counts := t.LevelRecordCounts()
			lv += int64(len(counts))
			for _, c := range counts {
				recs += c
			}
			pending += int64(t.PendingCarries())
		}
		mu.Lock()
		levels, levelRecords, pendingMax = lv, recs, max(pendingMax, pending)
		mu.Unlock()
	})
	gc0 := readGC()

	// Open loop: writes and rectangle reads at fixed rates, as in
	// durable_kv. Then closed-loop bursts of the one pipelined writer.
	// The one writer generator feeds both phases in order, so its live set
	// is the oracle.
	writes := newPointWrites(e.seed, pts)
	rectRand := newRand(e.seed, 6)
	reads := &spatialReads{tr: e.tr, d: d, rects: func() rangetree.Rect { return randRect(rectRand) }}
	openFor := time.Duration(float64(e.seconds) * openShare)
	openRecs, late := openLoop(e.tr, d.ApplyAsync, writes.next, reads.read, spWriteRate, openFor)

	// Each burst is four checkpoint intervals long, so every burst takes
	// exactly four checkpoints. A checkpoint stalls the spWindow batches in
	// flight, so 1.6% of batches wait on one and a burst's write p99 is
	// about its second-shortest checkpoint stall. Every burst starts at
	// the same point of the checkpoint cadence, but the store grows by 40k
	// points a burst and the ladder's big carries fall in fixed bursts, so
	// the bursts' percentiles follow a pattern that is the same in every
	// run. A median over them would report one or two fixed bursts and
	// carry their noise; the write percentiles are geometric means over
	// the spBursts bursts of a 15 s run instead, so every burst counts,
	// and a burst a host stall slowed counts by its ratio, not its
	// milliseconds.
	var bursts, writeP50s, writeTails []float64
	var recs []batchRec[serve.PointOp]
	for range max(3, int(e.seconds/time.Second)*spBursts/15) {
		settle()
		start := time.Now()
		burst := pipelined(e.tr, d.ApplyAsync, writes.next, spWindow, spBurstBatches, nil)
		bursts = append(bursts, time.Since(start).Seconds())
		recs = append(recs, burst...)
		bl := summarizeWrites(burst, newOutcome()).latency.summary()
		writeP50s, writeTails = append(writeP50s, ms(bl.p50)), append(writeTails, ms(bl.tailVal))
	}
	gc1 := readGC()
	flushMax := mon.done()

	open := summarizeWrites(openRecs, out)
	w := summarizeWrites(recs, out)
	readSum := reads.times.total.summary()
	readTail := medianWindowTail(reads.times.total, len(reads.times.total)/1000)
	out.attempted += int64(readSum.n + reads.errs)
	for range reads.errs {
		out.fail("ReaderView failed")
	}
	payload := (open.ops + w.ops) * 24 // x, y and weight per op
	viewSum, querySum, shardSum := reads.times.view.summary(), reads.times.query.summary(), reads.shardSums.summary()

	// The oracle is the writer's own live set: one writer, acked in order.
	view, err := d.Snapshot()
	if err != nil {
		return nil, err
	}
	live := liveList(writes.live)
	checkPoints(out, "final view", view, live, e.seed)
	stats := d.Stats()
	heap := heapMiB()
	before := heapBytes()
	if err := d.Close(); err != nil {
		return nil, err
	}
	d, view, reads = nil, serve.PointView{}, nil
	storeHeap := before - heapBytes()
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	recoveries, rec, err := recoverRounds(func() (*serve.DurablePointStore, error) { return openSpatial(serve.OSFS{Dir: dir}) },
		func(r *serve.DurablePointStore, round int) error {
			v, err := r.Snapshot()
			if err != nil {
				return err
			}
			checkPoints(out, "reopened store", v, live, e.seed+uint64(round)+1)
			return nil
		})
	if err != nil {
		return nil, err
	}

	entries := float64(len(live))
	lat := w.latency.summary()
	m := out.metrics
	m["setup_s"] = median(setups)
	m["run_s"] = median(bursts)
	m["throughput_ops_s"] = float64(w.ops) / float64(len(bursts)) / median(bursts)
	m["write_p50_ms"], m["write_p99_ms"] = geomean(writeP50s), geomean(writeTails)
	m["read_p50_us"], m["read_p99_us"] = us(readSum.p50), readTail
	m["recovery_s"] = median(recoveries)
	m["mem_bytes_per_entry"] = float64(storeHeap) / entries
	m["disk_bytes_per_entry"] = float64(disk) / entries
	m["heap_mib"] = heap
	fmt.Printf("burst write p50s %.2f\nburst write p99s %.1f\nbursts %.3f\nrecoveries %.3f\nopen-loop write %v\nclosed-loop write %v\nread %v\nlate %v\n",
		writeP50s, writeTails, bursts, recoveries, open.latency.summary(), lat, readSum, late.summary())

	if e.tr != nil {
		storeLayerMetrics(m, joinWrites(open, w), meter, flushMax, stats, rec, payload)
		m["fs.busy_s"] = fsBusy(e.tr)
		m["serve.readerview_p50_us"] = us(viewSum.p50)
		m["serve.view_query_p50_us"], m["serve.view_query_p99_us"] = us(querySum.p50), us(querySum.tailVal)
		m["rangetree.querysum_p50_us"], m["rangetree.querysum_p99_us"] = us(shardSum.p50), us(shardSum.tailVal)
		loadgenMetrics(m, open, late, readSum.n)
		gcMetrics(m, gc0, gc1, open.ops+w.ops+int64(readSum.n))
		mu.Lock()
		m["dynamic.levels"], m["dynamic.level_records"] = float64(levels), float64(levelRecords)
		m["dynamic.pending_carries_max"] = float64(pendingMax)
		mu.Unlock()
	}
	return out, nil
}

// checkPoints compares a view with the oracle's live points: its size,
// and QuerySum and QueryCount on sampled rectangles against brute force.
func checkPoints(out *outcome, what string, v serve.PointView, live []rangetree.Weighted, seed uint64) {
	out.check(v.Size() == int64(len(live)), "%s has %d points, want %d", what, v.Size(), len(live))
	r := newRand(seed, 7)
	rects := make([]rangetree.Rect, spChecks)
	for i := range rects {
		rects[i] = randRect(r)
	}
	sums, counts := make([]int64, spChecks), make([]int64, spChecks)
	for _, w := range live {
		for i, rect := range rects {
			if w.X >= rect.XLo && w.X <= rect.XHi && w.Y >= rect.YLo && w.Y <= rect.YHi {
				sums[i] += w.W
				counts[i]++
			}
		}
	}
	for i, rect := range rects {
		got, gotN := v.QuerySum(rect), v.QueryCount(rect)
		out.check(got == sums[i] && gotN == counts[i], "%s: rectangle %+v holds %d points weighing %d, want %d and %d",
			what, rect, gotN, got, counts[i], sums[i])
	}
}

// liveList flattens the oracle's live set for brute-force checks.
func liveList(live map[rangetree.Point]int64) []rangetree.Weighted {
	out := make([]rangetree.Weighted, 0, len(live))
	for p, w := range live {
		out = append(out, rangetree.Weighted{Point: p, W: w})
	}
	return out
}

func heapBytes() int64 {
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return int64(s.HeapAlloc)
}
