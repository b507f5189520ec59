package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/pam"
	"repro/serve"
)

type kvStore = serve.DurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]]

type kvOp = serve.Op[uint64, int64]

// The durable key-value workload's fixed settings. The flush policy is
// the store's own: one fsync per group commit.
const (
	kvShards          = 2
	kvCheckpointEvery = 256 // batches between automatic checkpoints
	kvCompactEvery    = 4   // checkpoints between compactions: one per 1024 batches
	kvWindow          = 8   // async batches in flight per closed-loop client
	// kvWriteRate is the open loop's offered write ops/s: a third of the
	// closed-loop capacity on a shared 2-vCPU VM, so a busy host does not
	// tip the loop into a growing backlog.
	kvWriteRate    = 16000
	kvPreloadBatch = 8192
)

func openKV(fs serve.FS) (*kvStore, error) {
	return serve.OpenDurableStore[uint64, int64, int64, pam.SumEntry[uint64, int64]](
		pam.Options{}, kvShards, seq.Mix64, pam.Uint64Codec(),
		serve.DurableConfig{FS: fs, CheckpointEvery: kvCheckpointEvery, CompactEvery: kvCompactEvery})
}

// setupKV creates a store in a fresh directory, preloads it and compacts
// it into one base checkpoint.
func setupKV(e env, preload []pam.KV[uint64, int64]) (*kvStore, string, *meteredFS, error) {
	dir, fs, meter, err := storeDir(e, "kv-")
	if err != nil {
		return nil, "", nil, err
	}
	d, err := openKV(fs)
	if err != nil {
		return nil, "", nil, err
	}
	ops := make([]kvOp, len(preload))
	for i, kv := range preload {
		ops[i] = serve.Put(kv.Key, kv.Val)
	}
	if err := load(d.ApplyAsync, ops, kvPreloadBatch); err != nil {
		d.Close()
		return nil, "", nil, err
	}
	if _, err := d.Compact(); err != nil {
		d.Close()
		return nil, "", nil, err
	}
	return d, dir, meter, nil
}

func runDurableKV(e env) (*outcome, error) {
	out := newOutcome()
	clients := runtime.NumCPU()

	var preload []pam.KV[uint64, int64]
	d, dir, meter, setups, err := repeatSetup(e, func() (*kvStore, string, *meteredFS, error) {
		preload = genKVPreload(e.seed, kvPreload, kvKeySpace)
		return setupKV(e, preload)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("inputs digest=%s\n", kvDigest(e.seed, preload, kvKeySpace, clients))

	mon := monitor(d.Stats, nil)
	gc0 := readGC()

	// Open loop: writes and reads at fixed rates, each timed from when it
	// was due.
	openFor := time.Duration(float64(e.seconds) * openShare)
	writes := newKVWrites(e.seed, 0, kvKeySpace, preload)
	reads := &readTimes{}
	queries := newKVReads(e.seed, kvKeySpace, preload)
	openRecs, late := openLoop(e.tr, d.ApplyAsync, writes.next, func() { reads.read(e.tr, d, queries.next()) }, kvWriteRate, openFor)

	// Closed loop: bursts from one client per CPU, each keeping a window of
	// async batches in flight. A run makes a fixed number of bursts, one
	// per three seconds, so its batch count is fixed; and each burst is
	// one compaction interval long, so every burst takes the same
	// checkpoints and one compaction, and run_s is a median of like with
	// like.
	var bursts []float64
	var closedRecs []batchRec[kvOp]
	gens := make([]*kvWrites, clients)
	for c := range gens {
		gens[c] = newKVWrites(e.seed, uint64(c+1), kvKeySpace, preload)
	}
	for range max(3, int(e.seconds/time.Second)/3) {
		settle()
		start := time.Now()
		recs := make([][]batchRec[kvOp], clients)
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[c] = pipelined(e.tr, d.ApplyAsync, gens[c].next, kvWindow, kvCheckpointEvery*kvCompactEvery/clients, nil)
			}()
		}
		wg.Wait()
		bursts = append(bursts, time.Since(start).Seconds())
		for _, r := range recs {
			closedRecs = append(closedRecs, r...)
		}
	}
	gc1 := readGC()
	flushMax := mon.done()

	open := summarizeWrites(openRecs, out)
	closed := summarizeWrites(closedRecs, out)
	readSum := reads.total.summary()
	out.attempted += int64(readSum.n + reads.errs)
	for range reads.errs {
		out.fail("ReaderView failed")
	}

	// The oracle: the preload, then every acked batch in commit order.
	oracle := make(map[uint64]int64, len(preload)*2)
	for _, kv := range preload {
		oracle[kv.Key] = kv.Val
	}
	payload := int64(0)
	for _, ops := range bySeq(append(openRecs, closedRecs...)) {
		for _, op := range ops {
			payload += 8
			if op.Kind == serve.OpPut {
				oracle[op.Key] = op.Val
				payload += 8
			} else {
				delete(oracle, op.Key)
			}
		}
	}
	openRecs, closedRecs = nil, nil
	view, err := d.Snapshot()
	if err != nil {
		return nil, err
	}
	checkKVView(out, "final view", view, oracle)
	var physical int64
	for i := range view.NumShards() {
		physical += view.Shard(i).Tree().SpaceStats().PhysicalBytes
	}
	heap := heapMiB()
	stats := d.Stats()
	if err := d.Close(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	// Recovery: reopen the closed directory, check the recovered state.
	recoveries, rec, err := recoverRounds(func() (*kvStore, error) { return openKV(serve.OSFS{Dir: dir}) },
		func(r *kvStore, round int) error {
			v, err := r.Snapshot()
			if err != nil {
				return err
			}
			if round == 0 {
				checkKVView(out, "reopened store", v, oracle)
			} else {
				out.check(v.Size() == int64(len(oracle)), "reopened store has %d keys, want %d", v.Size(), len(oracle))
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Write latency comes from the closed loop, timed from the ApplyAsync
	// call: every burst there takes the same checkpoints and compaction,
	// so its tail is steady. The open loop's tail, timed from the due
	// time, is set by the one or two compactions that fall in it; it is
	// reported with the load generator's figures.
	lat := closed.latency.summary()
	m := out.metrics
	m["setup_s"] = median(setups)
	m["run_s"] = median(bursts)
	m["throughput_ops_s"] = float64(closed.ops) / float64(len(bursts)) / median(bursts)
	m["write_p50_ms"], m["write_p99_ms"] = ms(lat.p50), ms(lat.tailVal)
	m["read_p50_us"], m["read_p99_us"] = us(readSum.p50), us(readSum.tailVal)
	m["recovery_s"] = median(recoveries)
	m["mem_bytes_per_entry"] = float64(physical) / float64(len(oracle))
	m["disk_bytes_per_entry"] = float64(disk) / float64(len(oracle))
	m["heap_mib"] = heap
	fmt.Printf("recoveries %.3f\nbursts %.3f\nopen-loop write %v\nclosed-loop write %v\nread %v\nlate %v\n", recoveries, bursts,
		open.latency.summary(), lat, readSum, late.summary())

	if e.tr != nil {
		storeLayerMetrics(m, joinWrites(open, closed), meter, flushMax, stats, rec, payload)
		m["fs.busy_s"] = fsBusy(e.tr)
		rv, q := reads.view.summary(), reads.query.summary()
		m["serve.readerview_p50_us"] = us(rv.p50)
		m["serve.view_query_p50_us"], m["serve.view_query_p99_us"] = us(q.p50), us(q.tailVal)
		loadgenMetrics(m, open, late, readSum.n)
		gcMetrics(m, gc0, gc1, open.ops+closed.ops+int64(readSum.n))
	}
	return out, nil
}

// checkKVView compares every entry of a view with the oracle.
func checkKVView(out *outcome, what string, v serve.View[uint64, int64, int64, pam.SumEntry[uint64, int64]], oracle map[uint64]int64) {
	out.check(v.Size() == int64(len(oracle)), "%s has %d keys, want %d", what, v.Size(), len(oracle))
	var sum int64
	for _, val := range oracle {
		sum += val
	}
	out.check(v.AugVal() == sum, "%s sums to %d, want %d", what, v.AugVal(), sum)
	bad := 0
	v.ForEach(func(k uint64, val int64) bool {
		if want, ok := oracle[k]; !ok || want != val {
			bad++
		}
		return true
	})
	out.check(bad == 0, "%s has %d entries that differ from the acked writes", what, bad)
}

// readTimes splits each read into the view it took and its query.
type readTimes struct {
	total, view, query samples
	errs               int
}

// read takes one ReaderView and runs one query on it.
func (rt *readTimes) read(tr *tracer, d *kvStore, q kvRead) {
	t0 := time.Now()
	v, err := d.ReaderView()
	t1 := time.Now()
	if err != nil {
		rt.errs++
		return
	}
	if q.find {
		v.Find(q.key)
	} else {
		v.AugRange(q.lo, q.hi)
	}
	t2 := time.Now()
	rt.total.add(t2.Sub(t0))
	rt.view.add(t1.Sub(t0))
	rt.query.add(t2.Sub(t1))
	if tr != nil {
		req := tr.newReq()
		tr.record("serve.ReaderView", req, req, t0, t1)
		tr.record("serve.view_query", req, req, t1, t2)
		tr.recordRequest("bench.read", req, t0, t2)
	}
}
