package main

import (
	"strings"
	"sync"
	"time"

	"repro/serve"
)

// ckptTmp is the name the durable stores write a checkpoint under before
// renaming it into place; the meter times a checkpoint from its Create
// to that rename.
const ckptTmp = "ckpt.tmp"

// meteredFS wraps a serve.FS: it records a span for every mutating call,
// counts the bytes written, times every Sync, and times each checkpoint
// from its Create to its Rename. It changes nothing it forwards, so the
// store under it behaves as on the bare filesystem.
type meteredFS struct {
	inner serve.FS
	tr    *tracer

	mu         sync.Mutex
	writeBytes int64
	syncs      samples
	size       map[string]int64 // bytes each file holds, as seen through the meter
	synced     map[string]int64 // bytes of each file covered by a Sync
	ckptStart  time.Time
	ckptBytes  int64
	ckptWrites samples
	ckptSizes  []int64
	compacts   int
	compacted  bool // the last publish already counted as a compaction
}

func newMeteredFS(inner serve.FS, tr *tracer) *meteredFS {
	return &meteredFS{inner: inner, tr: tr, size: map[string]int64{}, synced: map[string]int64{}}
}

func (m *meteredFS) done(call string, start time.Time) time.Time {
	end := time.Now()
	m.tr.record("fs."+call, 0, 0, start, end)
	return end
}

func (m *meteredFS) Create(name string) (serve.File, error) {
	start := time.Now()
	f, err := m.inner.Create(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done("Create", start)
	if err != nil {
		return nil, err
	}
	m.size[name], m.synced[name] = 0, 0
	if name == ckptTmp {
		m.ckptStart, m.ckptBytes = start, 0
	}
	return &meteredFile{File: f, name: name, m: m}, nil
}

func (m *meteredFS) Append(name string) (serve.File, error) {
	start := time.Now()
	f, err := m.inner.Append(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done("Append", start)
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, name: name, m: m}, nil
}

func (m *meteredFS) ReadFile(name string) ([]byte, error) { return m.inner.ReadFile(name) }

func (m *meteredFS) List() ([]string, error) { return m.inner.List() }

func (m *meteredFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := m.inner.Rename(oldname, newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.done("Rename", start)
	if err != nil {
		return err
	}
	m.size[newname], m.synced[newname] = m.size[oldname], m.synced[oldname]
	delete(m.size, oldname)
	delete(m.synced, oldname)
	if oldname == ckptTmp && !m.ckptStart.IsZero() {
		m.compacted = false
		m.ckptWrites.add(end.Sub(m.ckptStart))
		m.ckptSizes = append(m.ckptSizes, m.ckptBytes)
		m.tr.record("ckpt.write", 0, 0, m.ckptStart, end)
		m.ckptStart = time.Time{}
	}
	return nil
}

func (m *meteredFS) Remove(name string) error {
	start := time.Now()
	err := m.inner.Remove(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done("Remove", start)
	if err != nil {
		return err
	}
	delete(m.size, name)
	delete(m.synced, name)
	// A publish followed by removal of superseded checkpoint files is a
	// compaction (for the point store, every checkpoint is).
	if strings.HasPrefix(name, "ckpt-") && !m.compacted {
		m.compacts++
		m.compacted = true
	}
	return nil
}

type meteredFile struct {
	serve.File
	name string
	m    *meteredFS
}

func (f *meteredFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	m := f.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done("Write", start)
	m.writeBytes += int64(n)
	m.size[f.name] += int64(n)
	if f.name == ckptTmp {
		m.ckptBytes += int64(n)
	}
	return n, err
}

func (f *meteredFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	m := f.m
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.done("Sync", start)
	m.syncs.add(end.Sub(start))
	if err == nil {
		m.synced[f.name] = m.size[f.name]
	}
	return err
}

// reset forgets every count and timing so far, keeping only what the
// files hold.
func (m *meteredFS) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeBytes, m.syncs = 0, nil
	m.ckptWrites, m.ckptSizes, m.compacts = nil, nil, 0
}

// fsReport is a consistent copy of the meter's counters.
type fsReport struct {
	writeBytes int64
	syncs      tail
	ckptWrites tail
	ckptSizes  []int64
	compacts   int
}

func (m *meteredFS) report() fsReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fsReport{writeBytes: m.writeBytes, syncs: m.syncs.summary(),
		ckptWrites: m.ckptWrites.summary(), ckptSizes: append([]int64(nil), m.ckptSizes...), compacts: m.compacts}
}
