package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/grid"
)

// stream.go is the chunked engine's one worker pool. The paper observes
// that compression must be "not only fast but also scalable to checkpoint
// size" (§II-A) and that per-array compression parallelizes trivially
// (§IV-D); chunked compression extends that inside one array. Slabs flow
// from a bounded pool of compression workers through per-chunk hand-off
// slots into a single ordered writer that streams frames into a sink:
// the caller's io.Writer (CompressChunkedTo) or a bytes.Buffer
// (CompressChunkedParallel, CompressChunkedDelta). A token bucket caps the
// compressed chunks in flight at workers+1, so peak extra memory is
// O(workers × chunk) and the writer's I/O overlaps the workers' compute.
// The bytes written are identical to the serial CompressChunked stream for
// every worker count.

// chunkSlot is one compressed chunk handed from a worker to the ordered
// writer.
type chunkSlot struct {
	res *Result
	err error
	ext int
	// sum fingerprints the slab's raw bytes and reused marks a SlabCache
	// hit (delta compressions only).
	sum    [sha256.Size]byte
	reused bool
}

// CompressChunkedParallel is CompressChunked with the slabs fanned out
// over a bounded worker pool. opts.Workers sets the pool size (0 =
// GOMAXPROCS, 1 = serial). The framed stream is byte-identical to
// CompressChunked's for the same field, options and chunk extent.
func CompressChunkedParallel(f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	return CompressChunkedDelta(f, opts, chunkExtent, nil)
}

// CompressChunkedDelta is CompressChunkedParallel with slab-level reuse:
// slabs whose raw bytes are unchanged since the cache was filled re-emit
// their cached compressed frame and skip the wavelet/quantize/entropy
// pipeline entirely. The framed stream is byte-identical to
// CompressChunkedParallel for the same inputs; the result's SlabsReused
// reports how many slabs were served from cache. The cache is updated in
// place to describe this checkpoint. A nil cache compresses every slab.
func CompressChunkedDelta(f *grid.Field, opts Options, chunkExtent int, cache *SlabCache) (*ChunkedResult, error) {
	var buf bytes.Buffer
	res, err := compressSlabs(&buf, f, opts, chunkExtent, cache)
	if err != nil {
		return nil, err
	}
	res.Data = buf.Bytes()
	return res, nil
}

// CompressChunkedTo is CompressChunked writing the framed stream to w as
// chunks complete instead of buffering it. opts.Workers sets the
// compression pool size (0 = GOMAXPROCS); chunks are written strictly in
// order, so the stream is byte-identical to CompressChunked's for the same
// field, options and chunk extent. The returned result carries the full
// accounting with Data nil and StreamBytes set to the bytes written.
//
// On error the stream written so far is abandoned mid-frame; callers that
// need atomicity must write through a staged destination (the store's
// temp-file commit path does exactly that).
func CompressChunkedTo(w io.Writer, f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	return compressSlabs(w, f, opts, chunkExtent, nil)
}

// compressSlabs is the pipeline behind every parallel chunked compression:
// slab source → optional SlabCache hit check → bounded worker pool →
// ordered writer into w. With a non-nil cache, workers fingerprint their
// slab and reuse the cached frame on a match, and the writer refreshes the
// entry of every recompressed slab.
func compressSlabs(w io.Writer, f *grid.Field, opts Options, chunkExtent int, cache *SlabCache) (*ChunkedResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if chunkExtent < 1 {
		return nil, fmt.Errorf("%w: chunk extent %d", ErrOptions, chunkExtent)
	}
	wall := time.Now()
	shape := f.Shape()
	planeElems := f.Len() / shape[0]
	nChunks := (shape[0] + chunkExtent - 1) / chunkExtent
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}
	if cache != nil && !cache.matches(shape, chunkExtent, opts, nChunks) {
		cache.shape = append([]int(nil), shape...)
		cache.chunkExtent = chunkExtent
		cache.opts = cacheKey(opts)
		cache.slabs = make([]slabEntry, nChunks)
		cache.valid = true
	}

	// Chunk-level parallelism saturates the pool, so per-chunk pipelines
	// run serially. chunkInternal keeps the workers' Compress calls from
	// recording operation-level metrics — their atomic stage-seconds adds
	// are the per-worker CPU aggregation; the whole compression records
	// once below.
	chunkOpts := opts
	chunkOpts.chunkInternal = true
	if workers > 1 {
		chunkOpts.Workers = 1
	}

	obsr := opts.observer()
	res := &ChunkedResult{RawBytes: f.Bytes(), Workers: workers}

	// Workers acquire a token before claiming a chunk; the writer releases
	// it once that chunk's bytes are on the wire. That caps
	// compressed-but-unwritten chunks at workers+1, the pipeline's memory
	// bound. Taking the token first is what keeps the pool live: indexes
	// are claimed in order, and only by token holders, so the chunk the
	// writer waits for is always held by a worker that can finish it. (A
	// worker that claimed first could be descheduled while later chunks
	// took every token, and the writer would wait forever.) done unblocks
	// token-waiting workers when the writer bails out early.
	slots := make([]chan chunkSlot, nChunks)
	for c := range slots {
		slots[c] = make(chan chunkSlot, 1)
	}
	tokens := make(chan struct{}, workers+1)
	done := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-done:
					return
				}
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					<-tokens
					return
				}
				// The slot is buffered, so the send never blocks and a
				// departed writer cannot strand the worker.
				slots[c] <- compressSlab(f, shape, planeElems, c, chunkExtent, chunkOpts, cache)
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()

	var stall, writeTime time.Duration
	write := func(p []byte) error {
		t0 := time.Now()
		_, err := w.Write(p)
		writeTime += time.Since(t0)
		res.StreamBytes += len(p)
		return err
	}
	if err := write(chunkedHeader(shape, nChunks)); err != nil {
		return nil, fmt.Errorf("core: stream header: %w", err)
	}
	for c := 0; c < nChunks; c++ {
		t0 := time.Now()
		s := <-slots[c]
		stall += time.Since(t0)
		if obsr != nil {
			obsr.Gauge(MetricStreamInflight).Set(float64(len(tokens)))
		}
		if s.err != nil {
			return nil, s.err
		}
		// Refresh before writing: whatever happens to the write, the entry
		// pairs this slab's sum with this slab's frame. Only the writer
		// touches cache.slabs[c] after its worker has read it.
		if cache != nil && !s.reused {
			// Cache a timings-free copy: a future reuse contributes the
			// bytes and quality stats but no phony CPU.
			cached := *s.res
			cached.Timings = Timings{}
			cache.slabs[c] = slabEntry{sum: s.sum, res: &cached}
		}
		var frame [12]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(s.ext))
		binary.LittleEndian.PutUint64(frame[4:], uint64(len(s.res.Data)))
		if err := write(frame[:]); err != nil {
			return nil, fmt.Errorf("core: stream chunk %d frame: %w", c, err)
		}
		if err := write(s.res.Data); err != nil {
			return nil, fmt.Errorf("core: stream chunk %d payload: %w", c, err)
		}
		res.addChunk(s.res)
		if s.reused {
			res.SlabsReused++
		}
		<-tokens
	}
	res.Timings.Total = time.Since(wall)
	if obsr != nil {
		obsr.Counter(MetricStreamStallSeconds).Add(stall.Seconds())
		obsr.Counter(MetricStreamWriteSeconds).Add(writeTime.Seconds())
		obsr.Gauge(MetricStreamInflight).Set(0)
	}
	recordChunkedCompress(opts, res)
	return res, nil
}

// compressSlab is one worker step: cut chunk c out of f and compress it,
// or serve its frame from the cache when the slab's bytes are unchanged.
// Workers only read cache entries; the ordered writer refreshes them.
func compressSlab(f *grid.Field, shape []int, planeElems, c, chunkExtent int, opts Options, cache *SlabCache) chunkSlot {
	start := c * chunkExtent
	s := chunkSlot{ext: min(chunkExtent, shape[0]-start)}
	slab, err := slabAt(f, shape, planeElems, start, s.ext)
	if err != nil {
		s.err = err
		return s
	}
	if cache != nil {
		h := sha256.New()
		slab.WriteTo(h)
		h.Sum(s.sum[:0])
		if ent := cache.slabs[c]; ent.res != nil && ent.sum == s.sum {
			s.res, s.reused = ent.res, true
			return s
		}
	}
	if s.res, err = Compress(slab, opts); err != nil {
		s.err = fmt.Errorf("core: chunk at plane %d: %w", start, err)
	}
	return s
}
