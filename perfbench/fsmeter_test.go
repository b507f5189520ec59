package main

import (
	"math/rand"
	"testing"

	"repro/serve"
)

// zeroSource makes MemFS.DurableState keep exactly each file's synced
// prefix.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// The meter's view of every file — its size and how much of it a Sync
// covered — must match what MemFS ends up holding.
func TestMeteredFSMatchesMemFS(t *testing.T) {
	mem := serve.NewMemFS()
	mem.SetKillPoint(1<<62, rand.New(zeroSource{}))
	meter := newMeteredFS(mem, newTracer())
	d, err := openKV(meter)
	if err != nil {
		t.Fatal(err)
	}
	writes := newKVWrites(1, 0, 1<<12, genKVPreload(1, 256, 1<<12))
	for i := range 40 {
		if _, err := d.Apply(writes.next()); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 10, 20:
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 30:
			if _, err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	durable := mem.DurableState()
	var total int64
	for _, name := range names {
		data, err := mem.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(data))
		if got := meter.size[name]; got != int64(len(data)) {
			t.Errorf("%s: meter saw %d bytes written, MemFS holds %d", name, got, len(data))
		}
		if got := meter.synced[name]; got != int64(len(durable[name])) {
			t.Errorf("%s: meter saw %d bytes synced, MemFS has %d durable", name, got, len(durable[name]))
		}
	}
	if len(meter.size) != len(names) {
		t.Errorf("meter tracks %d files, MemFS holds %d", len(meter.size), len(names))
	}
	r := meter.report()
	if r.writeBytes < total {
		t.Errorf("meter counted %d bytes written, but the files hold %d", r.writeBytes, total)
	}
	if r.syncs.n == 0 {
		t.Error("meter timed no syncs")
	}
	if r.ckptWrites.n != 3 || r.compacts != 1 {
		t.Errorf("meter saw %d checkpoints and %d compactions, want 3 and 1", r.ckptWrites.n, r.compacts)
	}
}
