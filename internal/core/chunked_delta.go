// chunked_delta.go holds the slab cache behind CompressChunkedDelta.
// Scientific time-stepping often leaves most of an array untouched
// between checkpoints (halo updates, local physics); the full pipeline
// still pays wavelet+quantize+DEFLATE for every slab. With a cache, the
// chunked pipeline (stream.go) fingerprints each slab's raw bytes
// (SHA-256) against the previous checkpoint and re-emits the cached
// compressed frame for clean slabs, so compression CPU scales with the
// mutated fraction — while the framed output stays byte-identical to
// CompressChunkedParallel for the same field, options and chunk extent
// (per-slab compression is deterministic, so a cached frame IS the
// frame a recompression would produce).
package core

import "crypto/sha256"

// slabEntry is one slab's cached fingerprint and compressed frame.
type slabEntry struct {
	sum [sha256.Size]byte
	// res is the cached per-slab Result with zeroed timings: reusing it
	// contributes bytes and quality stats to the aggregate but no CPU.
	res *Result
}

// SlabCache carries per-slab fingerprints and compressed payloads
// between successive CompressChunkedDelta calls over the same variable.
// A cache is valid for one (shape, chunkExtent, options) combination;
// any change invalidates it wholesale and the next call recompresses
// everything. The zero value is ready to use. A SlabCache is not safe
// for concurrent use (within one compression, workers only read it and
// the pipeline's single ordered writer updates it).
type SlabCache struct {
	shape       []int
	chunkExtent int
	opts        Options
	slabs       []slabEntry
	valid       bool
}

// Reset discards all cached state: the next delta compression
// recompresses every slab. Call it when the underlying data jumps to an
// unrelated state (e.g. after a restore).
func (c *SlabCache) Reset() {
	c.slabs = nil
	c.valid = false
}

// cacheKey normalizes the options for cache-validity comparison:
// telemetry sinks and worker counts do not affect the output bytes.
func cacheKey(opts Options) Options {
	opts.Observer = nil
	opts.Workers = 0
	opts.chunkInternal = false
	return opts
}

// matches reports whether the cache was built for this exact
// compression geometry and parameter set.
func (c *SlabCache) matches(shape []int, chunkExtent int, opts Options, nChunks int) bool {
	if !c.valid || c.chunkExtent != chunkExtent || len(c.slabs) != nChunks ||
		len(c.shape) != len(shape) || c.opts != cacheKey(opts) {
		return false
	}
	for i, e := range shape {
		if c.shape[i] != e {
			return false
		}
	}
	return true
}
