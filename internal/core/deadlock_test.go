package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lossyckpt/internal/entropy"
)

// TestChunkedPipelineNoDeadlock hammers the chunked worker pool with many
// tiny slabs and more workers than CPUs. A worker that claimed a chunk
// index before taking a token could be descheduled while later chunks
// took every token, leaving the ordered writer waiting for the earlier
// chunk forever. Each call runs under a watchdog so a hang fails fast
// instead of stalling the suite.
func TestChunkedPipelineNoDeadlock(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	f := smooth3D(256, 2, 2, 13) // 128 two-plane slabs
	opts := DefaultOptions()
	opts.Workers = 8
	// The LZ4 stage keeps per-slab work small, so more claims race per
	// second of test time.
	opts.EntropyCodec = entropy.LZ4

	var cache SlabCache
	g := f.Clone()
	cases := []struct {
		name  string
		iters int
		call  func(it int) error
	}{
		{"CompressChunkedTo", iters, func(int) error {
			_, err := CompressChunkedTo(&bytes.Buffer{}, f, opts, 2)
			return err
		}},
		{"CompressChunkedDelta", iters / 4, func(it int) error {
			// Touch one slab per call so each run mixes cache hits with
			// recompressed slabs.
			g.Data()[(8*it)%g.Len()] += 1e-3
			res, err := CompressChunkedDelta(g, opts, 2, &cache)
			if err == nil && it > 0 && res.SlabsReused < res.Chunks-1 {
				err = fmt.Errorf("warm cache reused %d of %d slabs", res.SlabsReused, res.Chunks)
			}
			return err
		}},
	}
	// Each case also stops at a time budget: the race detector slows every
	// call by an order of magnitude.
	const budget = 3 * time.Second
	for _, tc := range cases {
		start := time.Now()
		for it := 0; it < tc.iters && time.Since(start) < budget; it++ {
			done := make(chan error, 1)
			go func() { done <- tc.call(it) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s iteration %d: %v", tc.name, it, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s iteration %d: no result after 5s (pipeline deadlock)", tc.name, it)
			}
		}
	}
}
