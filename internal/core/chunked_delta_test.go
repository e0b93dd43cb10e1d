package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"lossyckpt/internal/grid"
)

// deltaTestField builds a smooth 3-D field the lossy pipeline likes.
func deltaTestField(t *testing.T, nz, ny, nx int) *grid.Field {
	t.Helper()
	f, err := grid.New(nz, ny, nx)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Data()
	for i := range d {
		d[i] = math.Sin(float64(i)/97.0) + 0.25*math.Cos(float64(i)/13.0)
	}
	return f
}

// TestCompressChunkedDeltaByteIdentical: the delta stream must be
// byte-identical to CompressChunkedParallel — cold cache, warm cache
// with clean data, and warm cache with a partial mutation.
func TestCompressChunkedDeltaByteIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	const extent = 4
	f := deltaTestField(t, 16, 12, 10)

	want, err := CompressChunkedParallel(f, opts, extent)
	if err != nil {
		t.Fatal(err)
	}

	var cache SlabCache
	cold, err := CompressChunkedDelta(f, opts, extent, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Data, want.Data) {
		t.Fatal("cold delta stream differs from CompressChunkedParallel")
	}
	if cold.SlabsReused != 0 {
		t.Fatalf("cold cache reused %d slabs", cold.SlabsReused)
	}

	// Clean re-checkpoint: everything reuses, stream still identical.
	warm, err := CompressChunkedDelta(f, opts, extent, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.Data, want.Data) {
		t.Fatal("warm delta stream differs")
	}
	if warm.SlabsReused != warm.Chunks {
		t.Fatalf("clean data reused %d of %d slabs", warm.SlabsReused, warm.Chunks)
	}
	if warm.Timings.Wavelet != 0 || warm.Timings.Gzip != 0 {
		t.Fatalf("fully reused checkpoint reports pipeline CPU: %+v", warm.Timings)
	}
	if warm.MaxCoeffError != want.MaxCoeffError {
		t.Fatalf("reused MaxCoeffError %v, want %v", warm.MaxCoeffError, want.MaxCoeffError)
	}

	// Mutate one slab (planes 4..7 = chunk 1): exactly one slab
	// recompresses, and the stream matches a from-scratch compression of
	// the mutated field.
	planeElems := f.Len() / 16
	for i := 4 * planeElems; i < 5*planeElems; i++ {
		f.Data()[i] += 0.5
	}
	mutWant, err := CompressChunkedParallel(f, opts, extent)
	if err != nil {
		t.Fatal(err)
	}
	mut, err := CompressChunkedDelta(f, opts, extent, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mut.Data, mutWant.Data) {
		t.Fatal("mutated delta stream differs from from-scratch compression")
	}
	if mut.SlabsReused != mut.Chunks-1 {
		t.Fatalf("one dirty slab but reused %d of %d", mut.SlabsReused, mut.Chunks)
	}

	// The stream stays decodable and restores the mutated field.
	got, err := Decompress(mut.Data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(f) {
		t.Fatal("decoded shape mismatch")
	}
}

// TestSlabCacheInvalidation: changed geometry or options must discard
// the cache rather than serve stale frames.
func TestSlabCacheInvalidation(t *testing.T) {
	opts := DefaultOptions()
	f := deltaTestField(t, 8, 6, 6)
	var cache SlabCache
	if _, err := CompressChunkedDelta(f, opts, 4, &cache); err != nil {
		t.Fatal(err)
	}

	// Different divisions: nothing may be reused.
	opts2 := opts
	opts2.Divisions = 64
	res, err := CompressChunkedDelta(f, opts2, 4, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlabsReused != 0 {
		t.Fatalf("options change reused %d slabs", res.SlabsReused)
	}
	want, err := CompressChunkedParallel(f, opts2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, want.Data) {
		t.Fatal("stream after options change differs")
	}

	// Different extent: ditto.
	res2, err := CompressChunkedDelta(f, opts2, 2, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SlabsReused != 0 {
		t.Fatalf("extent change reused %d slabs", res2.SlabsReused)
	}

	// Reset forces recompression even with identical inputs.
	cache.Reset()
	res3, err := CompressChunkedDelta(f, opts2, 2, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res3.SlabsReused != 0 {
		t.Fatalf("reset cache reused %d slabs", res3.SlabsReused)
	}

	// Worker count is normalized out of the cache key: a different pool
	// size still reuses (output is worker-independent by contract).
	opts3 := opts2
	opts3.Workers = 3
	res4, err := CompressChunkedDelta(f, opts3, 2, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res4.SlabsReused != res4.Chunks {
		t.Fatalf("worker-count change broke reuse: %d of %d", res4.SlabsReused, res4.Chunks)
	}
}

// TestCompressChunkedDeltaNilCache falls back to the parallel engine.
func TestCompressChunkedDeltaNilCache(t *testing.T) {
	opts := DefaultOptions()
	f := deltaTestField(t, 8, 6, 6)
	res, err := CompressChunkedDelta(f, opts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CompressChunkedParallel(f, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, want.Data) {
		t.Fatal("nil-cache delta differs from parallel engine")
	}
	if res.Timings.Total <= 0 {
		t.Fatalf("timings not recorded: %v", time.Duration(res.Timings.Total))
	}
}
