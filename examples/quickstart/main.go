// Quickstart: compress one smooth 3D array with the paper's pipeline,
// decompress it, and report the compression rate and relative error —
// the minimal end-to-end use of the library.
package main

import (
	"fmt"
	"log"
	"math"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
)

func main() {
	// Build a smooth "physical quantity" array, the class of data the
	// compressor targets (paper §III: pressures, temperatures,
	// velocities of mesh-based applications).
	field := grid.MustNew(256, 64, 2)
	for i := 0; i < 256; i++ {
		for k := 0; k < 64; k++ {
			for c := 0; c < 2; c++ {
				v := 300 +
					25*math.Sin(2*math.Pi*float64(i)/256) +
					10*math.Cos(math.Pi*float64(k)/64) +
					0.5*float64(c)
				field.Set(v, i, k, c)
			}
		}
	}

	// The paper's headline configuration: 1-level Haar, proposed
	// quantization with n=128 divisions, gzip at the end.
	opts := core.DefaultOptions()

	result, err := core.Compress(field, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d bytes to %d bytes (compression rate %.2f%%)\n",
		result.RawBytes, result.CompressedBytes, result.CompressionRatePct())
	fmt.Printf("phase breakdown: wavelet=%v quantize=%v encode=%v gzip=%v\n",
		result.Timings.Wavelet, result.Timings.Quantize,
		result.Timings.Encode, result.Timings.Gzip)

	restored, err := core.Decompress(result.Data, 0)
	if err != nil {
		log.Fatal(err)
	}
	summary, err := stats.Compare(field.Data(), restored.Data())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relative error after round trip: %s\n", summary)

	// Trade accuracy for size: the simple quantizer with few divisions.
	cheap := opts
	cheap.Method = quant.Simple
	cheap.Divisions = 4
	cheapRes, err := core.Compress(field, cheap)
	if err != nil {
		log.Fatal(err)
	}
	cheapField, err := core.Decompress(cheapRes.Data, 0)
	if err != nil {
		log.Fatal(err)
	}
	cheapSum, _ := stats.Compare(field.Data(), cheapField.Data())
	fmt.Printf("simple n=4: compression rate %.2f%%, error %s\n",
		cheapRes.CompressionRatePct(), cheapSum)
}
