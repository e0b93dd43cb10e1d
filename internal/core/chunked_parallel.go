package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lossyckpt/internal/grid"
)

// This file is the decode half of the chunked parallel engine; the
// compression pool lives in stream.go.

// decompressChunks reconstructs the field from a chunked stream, decoding
// chunk payloads on a bounded worker pool (workers 0 = GOMAXPROCS, 1 =
// serial). Chunks scatter into disjoint plane ranges of the output field,
// so the reconstruction is identical to DecompressChunked for every
// worker count.
func decompressChunks(data []byte, workers int) (*grid.Field, error) {
	shape, frames, err := parseChunked(data)
	if err != nil {
		return nil, err
	}
	pool := workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > len(frames) {
		pool = len(frames)
	}
	// Chunk-level parallelism already uses the pool, so each chunk's
	// wavelet inverse runs serially — unless the pool has a single worker,
	// which then honors the caller's bound (1 = serial, 0 = GOMAXPROCS).
	chunkWorkers := 1
	if pool == 1 {
		chunkWorkers = workers
	}
	f, err := grid.New(shape...)
	if err != nil {
		return nil, err
	}
	planeElems := f.Len() / shape[0]
	errs := make([]error, len(frames))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= len(frames) {
					return
				}
				errs[c] = decodeChunkInto(f, shape, planeElems, c, frames[c], chunkWorkers)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}
