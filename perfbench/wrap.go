package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/store"
)

// recorder keeps the spans of one goroutine's calls into the layers and
// folds each into per-name inclusive and self time as it ends. Spans
// must nest; a span's self time is its duration minus that of the spans
// it encloses.
type recorder struct {
	mu    sync.Mutex
	stack []frame
	incl  map[string]time.Duration
	self  map[string]time.Duration
}

type frame struct {
	name     string
	start    time.Time
	children time.Duration
}

func newRecorder() *recorder {
	return &recorder{incl: map[string]time.Duration{}, self: map[string]time.Duration{}}
}

func (r *recorder) begin(name string) {
	r.mu.Lock()
	r.stack = append(r.stack, frame{name: name, start: time.Now()})
	r.mu.Unlock()
}

func (r *recorder) end() {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	d := now.Sub(f.start)
	r.incl[f.name] += d
	r.self[f.name] += d - f.children
	if n := len(r.stack); n > 0 {
		r.stack[n-1].children += d
	}
}

// span times fn as one span called name.
func (r *recorder) span(name string, fn func() error) error {
	r.begin(name)
	defer r.end()
	return fn()
}

// take returns the totals since the last take and resets them. It
// fails if a span is still open.
func (r *recorder) take() (incl, self map[string]time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) != 0 {
		return nil, nil, fmt.Errorf("recorder: %d spans still open (%s)", len(r.stack), r.stack[0].name)
	}
	incl, self = r.incl, r.self
	r.incl, r.self = map[string]time.Duration{}, map[string]time.Duration{}
	return incl, self, nil
}

// fsOp classifies filesystem calls for the timing FS.
type fsOp int

const (
	fsCreate fsOp = iota
	fsWrite
	fsSync
	fsRename
	fsSyncDir
	fsRead // Open, Read and Close of a file opened for reading
	fsOther
	numFSOps
)

var fsOpNames = [numFSOps]string{"create", "write", "sync", "rename", "syncdir", "read", "other"}

// fsStats accumulates per-op counts, durations and bytes.
type fsStats struct {
	n      [numFSOps]int64
	d      [numFSOps]time.Duration
	bytes  [numFSOps]int64
	chunks int64 // content-addressed chunks published (renamed into place)
}

func (s fsStats) total() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// timingFS is a store.FS that counts and times every call, and records
// a span per call when it has a recorder.
type timingFS struct {
	inner store.FS
	rec   *recorder

	mu sync.Mutex
	st fsStats
}

func newTimingFS(inner store.FS, rec *recorder) *timingFS {
	return &timingFS{inner: inner, rec: rec}
}

// take returns the counters since the last take and resets them.
func (t *timingFS) take() fsStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	t.st = fsStats{}
	return st
}

func (t *timingFS) do(op fsOp, fn func() (int, error)) error {
	if t.rec != nil {
		t.rec.begin("fs." + fsOpNames[op])
	}
	start := time.Now()
	n, err := fn()
	d := time.Since(start)
	if t.rec != nil {
		t.rec.end()
	}
	t.mu.Lock()
	t.st.n[op]++
	t.st.d[op] += d
	t.st.bytes[op] += int64(n)
	t.mu.Unlock()
	return err
}

func (t *timingFS) Create(name string) (store.File, error) {
	var f store.File
	err := t.do(fsCreate, func() (_ int, err error) { f, err = t.inner.Create(name); return 0, err })
	if err != nil {
		return nil, err
	}
	return &timingFile{fs: t, f: f, closeOp: fsOther}, nil
}

func (t *timingFS) Open(name string) (store.File, error) {
	var f store.File
	err := t.do(fsRead, func() (_ int, err error) { f, err = t.inner.Open(name); return 0, err })
	if err != nil {
		return nil, err
	}
	return &timingFile{fs: t, f: f, closeOp: fsRead}, nil
}

func (t *timingFS) Rename(oldname, newname string) error {
	err := t.do(fsRename, func() (int, error) { return 0, t.inner.Rename(oldname, newname) })
	if err == nil && filepath.Base(filepath.Dir(newname)) == store.CASDir && strings.HasSuffix(newname, ".chk") {
		t.mu.Lock()
		t.st.chunks++
		t.mu.Unlock()
	}
	return err
}

func (t *timingFS) Remove(name string) error {
	return t.do(fsOther, func() (int, error) { return 0, t.inner.Remove(name) })
}

func (t *timingFS) ReadDir(dir string) ([]string, error) {
	var names []string
	err := t.do(fsOther, func() (_ int, err error) { names, err = t.inner.ReadDir(dir); return 0, err })
	return names, err
}

func (t *timingFS) MkdirAll(dir string) error {
	return t.do(fsOther, func() (int, error) { return 0, t.inner.MkdirAll(dir) })
}

func (t *timingFS) SyncDir(dir string) error {
	return t.do(fsSyncDir, func() (int, error) { return 0, t.inner.SyncDir(dir) })
}

type timingFile struct {
	fs      *timingFS
	f       store.File
	closeOp fsOp
}

func (f *timingFile) Read(p []byte) (n int, err error) {
	err = f.fs.do(fsRead, func() (int, error) { n, err = f.f.Read(p); return n, err })
	return n, err
}

func (f *timingFile) Write(p []byte) (n int, err error) {
	err = f.fs.do(fsWrite, func() (int, error) { n, err = f.f.Write(p); return n, err })
	return n, err
}

func (f *timingFile) Sync() error {
	return f.fs.do(fsSync, func() (int, error) { return 0, f.f.Sync() })
}

func (f *timingFile) Close() error {
	return f.fs.do(f.closeOp, func() (int, error) { return 0, f.f.Close() })
}

// timedCodec wraps a ckpt codec so each encode and decode is a span. It
// offers every optional interface the manager probes and forwards each
// call in the manager's own order of preference, so the manager takes
// the same path through the inner codec as it would unwrapped.
type timedCodec struct {
	inner ckpt.Codec
	rec   *recorder
}

const (
	spanEncode = "core.compress"
	spanDecode = "core.decompress"
)

var (
	_ ckpt.NamedEncoder       = (*timedCodec)(nil)
	_ ckpt.StreamEncoder      = (*timedCodec)(nil)
	_ ckpt.NamedStreamEncoder = (*timedCodec)(nil)
	_ ckpt.DeltaEncoder       = (*timedCodec)(nil)
)

func (c *timedCodec) Name() string   { return c.inner.Name() }
func (c *timedCodec) Lossless() bool { return c.inner.Lossless() }

func (c *timedCodec) Encode(f *grid.Field) (enc *ckpt.Encoded, err error) {
	err = c.rec.span(spanEncode, func() (err error) { enc, err = c.inner.Encode(f); return err })
	return enc, err
}

func (c *timedCodec) EncodeNamed(name string, f *grid.Field) (enc *ckpt.Encoded, err error) {
	ne, ok := c.inner.(ckpt.NamedEncoder)
	if !ok {
		return c.Encode(f)
	}
	err = c.rec.span(spanEncode, func() (err error) { enc, err = ne.EncodeNamed(name, f); return err })
	return enc, err
}

func (c *timedCodec) EncodeTo(w io.Writer, f *grid.Field) (enc *ckpt.Encoded, err error) {
	se, ok := c.inner.(ckpt.StreamEncoder)
	if !ok {
		return c.Encode(f)
	}
	err = c.rec.span(spanEncode, func() (err error) { enc, err = se.EncodeTo(w, f); return err })
	return enc, err
}

func (c *timedCodec) EncodeNamedTo(w io.Writer, name string, f *grid.Field) (enc *ckpt.Encoded, err error) {
	nse, ok := c.inner.(ckpt.NamedStreamEncoder)
	switch {
	case ok:
		err = c.rec.span(spanEncode, func() (err error) { enc, err = nse.EncodeNamedTo(w, name, f); return err })
		return enc, err
	case isStreamEncoder(c.inner):
		return c.EncodeTo(w, f)
	default:
		return c.EncodeNamed(name, f)
	}
}

func isStreamEncoder(c ckpt.Codec) bool { _, ok := c.(ckpt.StreamEncoder); return ok }

func (c *timedCodec) DeltaCapable() bool {
	de, ok := c.inner.(ckpt.DeltaEncoder)
	return ok && de.DeltaCapable()
}

func (c *timedCodec) EncodeNamedDelta(name string, f *grid.Field, cache *core.SlabCache) (enc *ckpt.Encoded, err error) {
	de, ok := c.inner.(ckpt.DeltaEncoder)
	if !ok {
		return nil, fmt.Errorf("codec %s has no delta encoder", c.inner.Name())
	}
	err = c.rec.span(spanEncode, func() (err error) { enc, err = de.EncodeNamedDelta(name, f, cache); return err })
	return enc, err
}

func (c *timedCodec) Decode(payload []byte, shape []int) (f *grid.Field, err error) {
	err = c.rec.span(spanDecode, func() (err error) { f, err = c.inner.Decode(payload, shape); return err })
	return f, err
}

// timedTarget wraps a store target so the calls the checkpoint manager
// makes, CommitStreamCtx and ReadGenerationRaw, are spans.
// Inside a commit, the checkpoint's write callback is a span of its own
// and every write it makes into the store is a "store.sink" span, so
// the store's work during streaming (chunking, hashing, file writes) is
// told apart from the checkpoint framing and the codec that feed it.
type timedTarget struct {
	store.Target
	rec *recorder
}

const (
	spanCommit = "store.commit"
	spanSink   = "store.sink"
	spanFeed   = "ckpt.feed"
	spanRead   = "store.read"
)

func (t *timedTarget) CommitStreamCtx(ctx context.Context, step int, write func(io.Writer) error) (gen store.Generation, err error) {
	err = t.rec.span(spanCommit, func() (err error) {
		gen, err = t.Target.CommitStreamCtx(ctx, step, func(w io.Writer) error {
			return t.rec.span(spanFeed, func() error { return write(&sinkWriter{w: w, rec: t.rec}) })
		})
		return err
	})
	return gen, err
}

func (t *timedTarget) ReadGenerationRaw(seq uint64) (data []byte, verified bool, err error) {
	err = t.rec.span(spanRead, func() (err error) { data, verified, err = t.Target.ReadGenerationRaw(seq); return err })
	return data, verified, err
}

type sinkWriter struct {
	w   io.Writer
	rec *recorder
}

func (s *sinkWriter) Write(p []byte) (n int, err error) {
	err = s.rec.span(spanSink, func() (err error) { n, err = s.w.Write(p); return err })
	return n, err
}
