package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/parallel"
	"repro/pam"
	"repro/serve"
)

type sumMap = pam.AugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]]

func add(a, b int64) int64 { return a + b }

func even(_ uint64, v int64) bool { return v%2 == 0 }

// jobOutputs is everything one §6 job computes; the oracle predicts all
// of it, and flat and packed leaves must produce identical outputs.
type jobOutputs struct {
	sizes, augs [8]int64 // A, B, union, intersect, difference, filter, range, after MultiInsert
	ranges      []int64
	finds       []int64 // -1 when absent
	scanN       int64
	scanSum     int64
}

func (o jobOutputs) digest() string {
	h := sha256.New()
	var b []byte
	for i := range o.sizes {
		b = binary.AppendVarint(b, o.sizes[i])
		b = binary.AppendVarint(b, o.augs[i])
	}
	for _, v := range o.ranges {
		b = binary.AppendVarint(b, v)
	}
	for _, v := range o.finds {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendVarint(b, o.scanN)
	b = binary.AppendVarint(b, o.scanSum)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// jobTimes is what one job measured, call by call.
type jobTimes struct {
	total                                     time.Duration
	builds                                    samples
	union, intersect, difference, filter, rng time.Duration
	multi, augRange, find                     samples
	scan                                      time.Duration
}

// analyticsJob runs the §6 job once, timing each call into pam. The
// finished maps are returned for validation, persistence and sizing.
func analyticsJob(tr *tracer, req uint64, opts pam.Options, in analyticsInputs) (jobOutputs, jobTimes, []sumMap) {
	var o jobOutputs
	var t jobTimes
	call := func(name string, f func()) time.Duration {
		start := time.Now()
		f()
		end := time.Now()
		tr.record("pam."+name, 0, req, start, end)
		return end.Sub(start)
	}
	start := time.Now()
	empty := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts)
	var a, b, u, i, d, f, r sumMap
	t.builds.add(call("Build", func() { a = empty.Build(in.a, add) }))
	t.builds.add(call("Build", func() { b = empty.Build(in.b, add) }))
	t.union = call("UnionWith", func() { u = a.UnionWith(b, add) })
	t.intersect = call("Intersect", func() { i = a.Intersect(b) })
	t.difference = call("Difference", func() { d = a.Difference(b) })
	t.filter = call("Filter", func() { f = u.Filter(even) })
	t.rng = call("Range", func() { r = u.Range(in.lo, in.hi) })
	m := u
	for _, batch := range in.batches {
		t.multi.add(call("MultiInsert", func() { m = m.MultiInsert(batch, add) }))
	}
	// The query half starts from a collected heap, so its latencies do
	// not depend on where a GC cycle started by the update half falls.
	settle()
	o.ranges = make([]int64, len(in.ranges))
	for q, rg := range in.ranges {
		s := time.Now()
		o.ranges[q] = u.AugRange(rg[0], rg[1])
		e := time.Now()
		tr.record("pam.AugRange", 0, req, s, e)
		t.augRange.add(e.Sub(s))
	}
	o.finds = make([]int64, len(in.finds))
	for q, k := range in.finds {
		s := time.Now()
		v, ok := u.Find(k)
		e := time.Now()
		tr.record("pam.Find", 0, req, s, e)
		t.find.add(e.Sub(s))
		if !ok {
			v = -1
		}
		o.finds[q] = v
	}
	t.scan = call("ForEach", func() {
		m.ForEach(func(_ uint64, v int64) bool {
			o.scanN++
			o.scanSum += v
			return true
		})
	})
	t.total = time.Since(start)
	maps := []sumMap{a, b, u, i, d, f, r, m}
	for j, mp := range maps {
		o.sizes[j], o.augs[j] = mp.Size(), mp.AugVal()
	}
	return o, t, maps
}

// ---- oracle ----

type kv = pam.KV[uint64, int64]

// sortedSum sorts items by key and sums the values of equal keys.
func sortedSum(items []kv) []kv {
	s := slices.Clone(items)
	slices.SortFunc(s, func(x, y kv) int {
		switch {
		case x.Key < y.Key:
			return -1
		case x.Key > y.Key:
			return 1
		}
		return 0
	})
	out := s[:0]
	for _, e := range s {
		if n := len(out); n > 0 && out[n-1].Key == e.Key {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return out
}

// merge walks two sorted maps in key order, keeping entries by side.
func merge(a, b []kv, onlyA, onlyB bool, both func(x, y int64) (int64, bool)) []kv {
	var out []kv
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].Key < b[j].Key):
			if onlyA {
				out = append(out, a[i])
			}
			i++
		case i == len(a) || b[j].Key < a[i].Key:
			if onlyB {
				out = append(out, b[j])
			}
			j++
		default:
			if v, keep := both(a[i].Val, b[j].Val); keep {
				out = append(out, kv{Key: a[i].Key, Val: v})
			}
			i, j = i+1, j+1
		}
	}
	return out
}

func sumOf(m []kv) int64 {
	var s int64
	for _, e := range m {
		s += e.Val
	}
	return s
}

// analyticsOracle computes the job's outputs from sorted references.
func analyticsOracle(in analyticsInputs) jobOutputs {
	a, b := sortedSum(in.a), sortedSum(in.b)
	u := merge(a, b, true, true, func(x, y int64) (int64, bool) { return x + y, true })
	i := merge(a, b, false, false, func(_, y int64) (int64, bool) { return y, true })
	d := merge(a, b, true, false, func(int64, int64) (int64, bool) { return 0, false })
	var f, r []kv
	for _, e := range u {
		if even(e.Key, e.Val) {
			f = append(f, e)
		}
		if e.Key >= in.lo && e.Key <= in.hi {
			r = append(r, e)
		}
	}
	m := u
	for _, batch := range in.batches {
		m = merge(m, sortedSum(batch), true, true, func(x, y int64) (int64, bool) { return x + y, true })
	}
	var o jobOutputs
	for j, mp := range [][]kv{a, b, u, i, d, f, r, m} {
		o.sizes[j], o.augs[j] = int64(len(mp)), sumOf(mp)
	}
	prefix := make([]int64, len(u)+1)
	for j, e := range u {
		prefix[j+1] = prefix[j] + e.Val
	}
	// first index with key >= k
	lower := func(k uint64) int {
		j, _ := slices.BinarySearchFunc(u, k, func(e kv, k uint64) int {
			switch {
			case e.Key < k:
				return -1
			case e.Key > k:
				return 1
			}
			return 0
		})
		return j
	}
	for _, rg := range in.ranges {
		o.ranges = append(o.ranges, prefix[lower(rg[1]+1)]-prefix[lower(rg[0])])
	}
	for _, k := range in.finds {
		v := int64(-1)
		if j := lower(k); j < len(u) && u[j].Key == k {
			v = u[j].Val
		}
		o.finds = append(o.finds, v)
	}
	o.scanN, o.scanSum = o.sizes[7], o.augs[7]
	return o
}

// compareJob counts every output of a job against the oracle.
func compareJob(out *outcome, got, want jobOutputs) {
	names := [8]string{"A", "B", "union", "intersect", "difference", "filter", "range", "multiinsert"}
	for j := range got.sizes {
		out.check(got.sizes[j] == want.sizes[j], "%s size %d, want %d", names[j], got.sizes[j], want.sizes[j])
		out.check(got.augs[j] == want.augs[j], "%s AugVal %d, want %d", names[j], got.augs[j], want.augs[j])
	}
	for q := range want.ranges {
		out.check(got.ranges[q] == want.ranges[q], "AugRange #%d = %d, want %d", q, got.ranges[q], want.ranges[q])
	}
	for q := range want.finds {
		out.check(got.finds[q] == want.finds[q], "Find #%d = %d, want %d", q, got.finds[q], want.finds[q])
	}
	out.check(got.scanN == want.scanN && got.scanSum == want.scanSum,
		"ForEach saw %d entries summing to %d, want %d and %d", got.scanN, got.scanSum, want.scanN, want.scanSum)
}

// ---- the workload ----

func analyticsOptions(packed bool) pam.Options {
	if packed {
		return pam.Options{Compress: pam.CompressUint64()}
	}
	return pam.Options{}
}

func runAnalytics(e env, packed bool) (*outcome, error) {
	opts := analyticsOptions(packed)
	out := newOutcome()

	// Set-up: generate the inputs and build the two input maps.
	var in analyticsInputs
	var setups []float64
	var allocs uint64
	for range setupRounds {
		settle()
		start := time.Now()
		in = genAnalytics(e.seed, anN)
		empty := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := empty.Build(in.a, add)
		runtime.ReadMemStats(&after)
		b := empty.Build(in.b, add)
		setups = append(setups, time.Since(start).Seconds())
		allocs = after.Mallocs - before.Mallocs
		runtime.KeepAlive(a)
		runtime.KeepAlive(b)
	}
	fmt.Printf("inputs digest=%s\n", in.digest())
	want := analyticsOracle(in)

	// The timed phase: the job, repeated until the time is spent (at
	// least three times, so run_s is a median). The read percentiles are
	// medians over jobs of each job's percentiles.
	if e.tr != nil {
		parallel.EnableStats(true)
		defer parallel.EnableStats(false)
	}
	gc0 := readGC()
	var runs, readP50s, readTails []float64
	var all jobTimes
	var perOp struct{ union, intersect, difference, filter, rng, scan []float64 }
	var maps []sumMap
	var got jobOutputs
	phase := time.Now()
	for job := 0; job < 3 || time.Since(phase)+time.Duration(median(runs)*1e9) <= e.seconds; job++ {
		var t jobTimes
		maps = nil
		settle()
		got, t, maps = analyticsJob(e.tr, uint64(job+1), opts, in)
		compareJob(out, got, want)
		runs = append(runs, t.total.Seconds())
		all.builds = append(all.builds, t.builds...)
		all.multi = append(all.multi, t.multi...)
		all.augRange = append(all.augRange, t.augRange...)
		all.find = append(all.find, t.find...)
		jobReads := append(slices.Clone(t.augRange), t.find...).summary()
		readP50s = append(readP50s, us(jobReads.p50))
		readTails = append(readTails, us(jobReads.tailVal))
		perOp.union = append(perOp.union, ms(t.union))
		perOp.intersect = append(perOp.intersect, ms(t.intersect))
		perOp.difference = append(perOp.difference, ms(t.difference))
		perOp.filter = append(perOp.filter, ms(t.filter))
		perOp.rng = append(perOp.rng, ms(t.rng))
		perOp.scan = append(perOp.scan, float64(t.scan)/float64(got.scanN))
	}
	forks := parallel.Forks()
	jobs := len(runs)
	gc1 := readGC()
	fmt.Printf("outputs digest=%s jobs=%d\n", got.digest(), jobs)

	// Outside the timed phase: validate the final maps, then persist the
	// job's result and time reading it back.
	for j, mp := range maps {
		out.check(mp.Validate(func(x, y int64) bool { return x == y }) == nil, "map %d fails Validate", j)
	}
	heap := heapMiB()
	final := maps[7]
	maps = nil // recovery runs beside the final map only
	diskBytes, recoveries, err := persistAndRecover(e, opts, final, want, out)
	if err != nil {
		return nil, err
	}

	writes := all.multi.summary()
	var inserted int64
	for _, b := range in.batches {
		inserted += int64(len(b))
	}
	space := final.Tree().SpaceStats()
	m := out.metrics
	m["setup_s"] = median(setups)
	m["run_s"] = median(runs)
	m["throughput_ops_s"] = float64(inserted*int64(jobs)) / writes.sumTotal.Seconds()
	m["write_p50_ms"], m["write_p99_ms"] = ms(writes.p50), ms(writes.tailVal)
	m["read_p50_us"], m["read_p99_us"] = median(readP50s), median(readTails)
	m["recovery_s"] = median(recoveries)
	m["mem_bytes_per_entry"] = float64(space.PhysicalBytes) / float64(final.Size())
	m["disk_bytes_per_entry"] = float64(diskBytes) / float64(final.Size())
	m["heap_mib"] = heap
	fmt.Printf("jobs %.3f\nrecoveries %.3f\nwrite %v\nread p99 by job %.2f\n", runs, recoveries, writes, readTails)

	if e.tr != nil {
		augR, find := all.augRange.summary(), all.find.summary()
		m["pam.build_ms"] = ms(all.builds.summary().p50)
		m["pam.union_ms"] = median(perOp.union)
		m["pam.intersect_ms"] = median(perOp.intersect)
		m["pam.difference_ms"] = median(perOp.difference)
		m["pam.filter_ms"] = median(perOp.filter)
		m["pam.range_ms"] = median(perOp.rng)
		m["pam.multiinsert_p50_ms"] = ms(writes.p50)
		m["pam.augrange_p50_us"], m["pam.augrange_p99_us"] = us(augR.p50), us(augR.tailVal)
		m["pam.find_p50_us"] = us(find.p50)
		m["pam.scan_ns_per_entry"] = median(perOp.scan)
		m["pam.allocs_per_entry"] = float64(allocs) / float64(len(in.a))
		m["parallel.forks"] = float64(forks) / float64(jobs)
		m["parallel.build_speedup"] = buildSpeedup(opts, in.a)
		gcMetrics(m, gc0, gc1, int64(jobs)*int64(len(in.a)+len(in.b)))
	}
	return out, nil
}

// persistAndRecover writes the final map through serve.OSFS, then reads
// and decodes it back setupRounds times, checking each copy against the
// oracle. It returns the file size and the recovery times.
func persistAndRecover(e env, opts pam.Options, m sumMap, want jobOutputs, out *outcome) (int64, []float64, error) {
	dir, fs, _, err := storeDir(e, "analytics-")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	codec := pam.Uint64Codec()
	recs, root, n := m.EncodeDelta(pam.NewRecordSet[uint64, int64, int64](), codec, nil)
	file := binary.AppendUvarint(nil, uint64(n))
	file = binary.AppendUvarint(file, root)
	file = append(file, recs...)
	if err := writeSynced(fs, "map", file); err != nil {
		return 0, nil, err
	}
	// Decoding one map takes a tenth of a second, so it is repeated twice
	// as often as a store's recovery.
	var times []float64
	for range 2 * recoveryRounds {
		settle()
		start := time.Now()
		data, err := fs.ReadFile("map")
		if err != nil {
			return 0, nil, err
		}
		got, err := decodeMap(opts, codec, data)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			out.check(false, "decoding the persisted map: %v", err)
			continue
		}
		out.check(got.Size() == want.sizes[7] && got.AugVal() == want.augs[7],
			"recovered map has %d entries summing to %d, want %d and %d", got.Size(), got.AugVal(), want.sizes[7], want.augs[7])
	}
	info, err := os.Stat(filepath.Join(dir, "map"))
	if err != nil {
		return 0, nil, err
	}
	return info.Size(), times, nil
}

func writeSynced(fs serve.FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func decodeMap(opts pam.Options, codec *pam.Codec[uint64, int64], data []byte) (sumMap, error) {
	n, k := binary.Uvarint(data)
	root, k2 := binary.Uvarint(data[max(k, 0):])
	if k <= 0 || k2 <= 0 {
		return sumMap{}, errors.New("bad header")
	}
	tb := pam.NewDecodeTable[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts)
	if _, err := tb.DecodeRecords(codec, data[k+k2:], int(n)); err != nil {
		return sumMap{}, err
	}
	return tb.Map(root)
}

// buildSpeedup is T1/Tp of one Build of the same input, p = GOMAXPROCS.
func buildSpeedup(opts pam.Options, items []kv) float64 {
	empty := pam.NewAugMap[uint64, int64, int64, pam.SumEntry[uint64, int64]](opts)
	timeBuild := func() float64 {
		runtime.GC()
		start := time.Now()
		m := empty.Build(items, add)
		d := time.Since(start).Seconds()
		runtime.KeepAlive(m)
		return d
	}
	p := parallel.Parallelism()
	parallel.SetParallelism(1)
	t1 := timeBuild()
	parallel.SetParallelism(p)
	return t1 / timeBuild()
}

// ---- process-wide measurements ----

type gcSnap struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64
}

func readGC() gcSnap {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return gcSnap{s.NumGC, s.PauseTotalNs, s.TotalAlloc}
}

func gcMetrics(m map[string]float64, a, b gcSnap, ops int64) {
	m["gc.cycles"] = float64(b.cycles - a.cycles)
	m["gc.pause_total_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	m["gc.alloc_bytes_per_op"] = float64(b.alloc-a.alloc) / float64(max(ops, 1))
}

// settle collects the heap before a timed repetition, so that the GC
// work a repetition does depends on what it allocates and not on what
// ran before it.
func settle() { runtime.GC() }

func heapMiB() float64 {
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return float64(s.HeapAlloc) / (1 << 20)
}
