package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"

	"repro/pam"
	"repro/rangetree"
	"repro/serve"
)

// batchLen is the number of ops in every write batch of the store
// workloads.
const batchLen = 64

// Every input comes from one of these generators, seeded only by --seed
// and a fixed stream number, so parent and change see identical inputs.
func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// digest hashes generated inputs so a run can show which inputs it used.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) u64(x uint64) { d.h.Write(binary.LittleEndian.AppendUint64(nil, x)) }

func (d digest) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d digest) kvs(items []pam.KV[uint64, int64]) {
	for _, e := range items {
		d.u64(e.Key)
		d.u64(uint64(e.Val))
	}
}

func (d digest) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// ---- analytics ----

// analyticsInputs is the paper's §6 job input: two maps, a stream of
// MultiInsert batches, point and range query streams.
type analyticsInputs struct {
	a, b    []pam.KV[uint64, int64]
	batches [][]pam.KV[uint64, int64]
	finds   []uint64
	ranges  [][2]uint64
	lo, hi  uint64 // the Range extraction window
}

const (
	anN       = 1 << 20 // keys are drawn from 2n, so the two maps overlap by about 40%
	anBatch   = 10_000
	anBatches = 32
	anQueries = 1 << 14
)

func randKVs(r *rand.Rand, n int, space uint64) []pam.KV[uint64, int64] {
	out := make([]pam.KV[uint64, int64], n)
	for i := range out {
		out[i] = pam.KV[uint64, int64]{Key: r.Uint64N(space), Val: r.Int64N(1000)}
	}
	return out
}

func genAnalytics(seed uint64, n int) analyticsInputs {
	r := newRand(seed, 1)
	space := uint64(2 * n)
	in := analyticsInputs{a: randKVs(r, n, space), b: randKVs(r, n, space)}
	batch := min(anBatch, n/8)
	for range anBatches {
		in.batches = append(in.batches, randKVs(r, batch, space))
	}
	width := max(space/1000, 1)
	for range anQueries {
		in.finds = append(in.finds, r.Uint64N(space))
		lo := r.Uint64N(space - width)
		in.ranges = append(in.ranges, [2]uint64{lo, lo + width})
	}
	in.lo = r.Uint64N(space / 2)
	in.hi = in.lo + space/4
	return in
}

func (in analyticsInputs) digest() string {
	d := newDigest()
	d.kvs(in.a)
	d.kvs(in.b)
	for _, b := range in.batches {
		d.kvs(b)
	}
	for i := range in.finds {
		d.u64(in.finds[i])
		d.u64(in.ranges[i][0])
		d.u64(in.ranges[i][1])
	}
	d.u64(in.lo)
	d.u64(in.hi)
	return d.hex()
}

// ---- durable key-value ----

const (
	kvPreload  = 1 << 20
	kvKeySpace = 1 << 22
)

// genKVPreload draws distinct keys over the key space, in random order.
func genKVPreload(seed uint64, n int, space uint64) []pam.KV[uint64, int64] {
	r := newRand(seed, 2)
	seen := make(map[uint64]struct{}, n)
	out := make([]pam.KV[uint64, int64], 0, n)
	for len(out) < n {
		k := r.Uint64N(space)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, pam.KV[uint64, int64]{Key: k, Val: r.Int64N(1 << 20)})
	}
	return out
}

// kvWrites yields 64-op batches, 90% Put of a key anywhere in the key
// space and 10% Del of a preloaded key, with distinct keys per batch.
type kvWrites struct {
	r       *rand.Rand
	space   uint64
	preload []pam.KV[uint64, int64]
}

func newKVWrites(seed, client uint64, space uint64, preload []pam.KV[uint64, int64]) *kvWrites {
	return &kvWrites{r: newRand(seed, 100+client), space: space, preload: preload}
}

func (g *kvWrites) next() []serve.Op[uint64, int64] {
	ops := make([]serve.Op[uint64, int64], 0, batchLen)
	seen := make(map[uint64]struct{}, batchLen)
	for len(ops) < batchLen {
		var op serve.Op[uint64, int64]
		if g.r.IntN(10) == 0 {
			op = serve.Del[uint64, int64](g.preload[g.r.IntN(len(g.preload))].Key)
		} else {
			op = serve.Put(g.r.Uint64N(g.space), g.r.Int64N(1<<20))
		}
		if _, dup := seen[op.Key]; dup {
			continue
		}
		seen[op.Key] = struct{}{}
		ops = append(ops, op)
	}
	return ops
}

// kvRead is a Find of a Zipf-skewed preloaded key, or (one in five) an
// AugRange over a thousandth of the key space.
type kvRead struct {
	find   bool
	key    uint64
	lo, hi uint64
}

type kvReads struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	space   uint64
	preload []pam.KV[uint64, int64]
}

func newKVReads(seed uint64, space uint64, preload []pam.KV[uint64, int64]) *kvReads {
	r := newRand(seed, 3)
	return &kvReads{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(len(preload)-1)), space: space, preload: preload}
}

func (g *kvReads) next() kvRead {
	if g.r.IntN(5) == 0 {
		width := max(g.space/1000, 1)
		lo := g.r.Uint64N(g.space - width)
		return kvRead{lo: lo, hi: lo + width}
	}
	return kvRead{find: true, key: g.preload[g.zipf.Uint64()].Key}
}

// kvDigest hashes the preload and a fixed prefix of every write and read
// stream the run draws from.
func kvDigest(seed uint64, preload []pam.KV[uint64, int64], space uint64, clients int) string {
	d := newDigest()
	d.kvs(preload)
	for c := range clients + 1 {
		g := newKVWrites(seed, uint64(c), space, preload)
		for range 256 {
			for _, op := range g.next() {
				d.u64(uint64(op.Kind))
				d.u64(op.Key)
				d.u64(uint64(op.Val))
			}
		}
	}
	rd := newKVReads(seed, space, preload)
	for range 4096 {
		q := rd.next()
		d.u64(q.key)
		d.u64(q.lo)
		d.u64(q.hi)
	}
	return d.hex()
}

// ---- spatial ----

const (
	spPreload = 1 << 18
	spSide    = 0.05 // query rectangles cover 0.25% of the unit square
)

func randPoint(r *rand.Rand) rangetree.Point { return rangetree.Point{X: r.Float64(), Y: r.Float64()} }

func genPoints(seed uint64, n int) []rangetree.Weighted {
	r := newRand(seed, 4)
	out := make([]rangetree.Weighted, n)
	for i := range out {
		out[i] = rangetree.Weighted{Point: randPoint(r), W: 1 + r.Int64N(100)}
	}
	return out
}

// pointWrites yields batches of 80% inserts of fresh points and 20%
// deletes of live ones. It tracks the live set itself, so the oracle
// after k batches is its state after k batches.
type pointWrites struct {
	r    *rand.Rand
	live map[rangetree.Point]int64
	pts  []rangetree.Point // the live keys, for uniform picks
}

func newPointWrites(seed uint64, preload []rangetree.Weighted) *pointWrites {
	g := &pointWrites{r: newRand(seed, 5), live: make(map[rangetree.Point]int64, len(preload))}
	for _, w := range preload {
		g.live[w.Point] = w.W
		g.pts = append(g.pts, w.Point)
	}
	return g
}

func (g *pointWrites) next() []serve.PointOp {
	ops := make([]serve.PointOp, 0, batchLen)
	for len(ops) < batchLen {
		if g.r.IntN(5) == 0 && len(g.pts) > 0 {
			i := g.r.IntN(len(g.pts))
			p := g.pts[i]
			g.pts[i] = g.pts[len(g.pts)-1]
			g.pts = g.pts[:len(g.pts)-1]
			delete(g.live, p)
			ops = append(ops, serve.DeletePoint(p))
			continue
		}
		p := randPoint(g.r)
		if _, dup := g.live[p]; dup {
			continue
		}
		w := 1 + g.r.Int64N(100)
		g.live[p] = w
		g.pts = append(g.pts, p)
		ops = append(ops, serve.InsertPoint(p, w))
	}
	return ops
}

func randRect(r *rand.Rand) rangetree.Rect {
	x, y := r.Float64()*(1-spSide), r.Float64()*(1-spSide)
	return rangetree.Rect{XLo: x, XHi: x + spSide, YLo: y, YHi: y + spSide}
}

func spatialDigest(seed uint64, preload []rangetree.Weighted) string {
	d := newDigest()
	for _, w := range preload {
		d.f64(w.X)
		d.f64(w.Y)
		d.u64(uint64(w.W))
	}
	g := newPointWrites(seed, preload)
	for range 256 {
		for _, op := range g.next() {
			d.u64(uint64(op.Kind))
			d.f64(op.P.X)
			d.f64(op.P.Y)
			d.u64(uint64(op.W))
		}
	}
	r := newRand(seed, 6)
	for range 4096 {
		q := randRect(r)
		d.f64(q.XLo)
		d.f64(q.YLo)
	}
	return d.hex()
}
