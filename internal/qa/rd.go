// rd.go sweeps the quantization-divisions knob to produce the
// rate-distortion curve — the paper's central trade-off (compression
// rate vs. introduced error) as a first-class artifact.
package qa

import (
	"fmt"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/stats"
)

// RDPoint is one operating point of the rate-distortion curve.
type RDPoint struct {
	Divisions       int     `json:"divisions"`
	CompressedBytes int     `json:"compressed_bytes"`
	BitsPerValue    float64 `json:"bits_per_value"`
	CompressionRate float64 `json:"compression_rate_pct"` // compressed/original × 100
	PSNR            float64 `json:"psnr_db"`
	MaxAbs          float64 `json:"max_abs"`
	MaxRel          float64 `json:"max_rel"`
	EncodeSeconds   float64 `json:"encode_seconds"`
	DecodeSeconds   float64 `json:"decode_seconds"`
}

// DefaultDivisions is the canonical sweep for rate-distortion curves:
// the codes-fit-in-a-byte range the pipeline supports (quant.MaxDivisions
// caps at 255), covering the paper's evaluated operating points.
var DefaultDivisions = []int{8, 16, 32, 64, 128, 192, 255}

// RateDistortion compresses f once per divisions setting (base
// supplies every other knob) and measures rate and distortion of each
// round trip.
func RateDistortion(f *grid.Field, base core.Options, divisions []int) ([]RDPoint, error) {
	if len(divisions) == 0 {
		divisions = DefaultDivisions
	}
	orig := f.Data()
	out := make([]RDPoint, 0, len(divisions))
	for _, div := range divisions {
		opts := base
		opts.Divisions = div
		t0 := time.Now()
		res, err := core.Compress(f, opts)
		if err != nil {
			return nil, fmt.Errorf("qa: rd compress (divisions=%d): %w", div, err)
		}
		enc := time.Since(t0)
		t0 = time.Now()
		dec, err := core.Decompress(res.Data, 0)
		if err != nil {
			return nil, fmt.Errorf("qa: rd decompress (divisions=%d): %w", div, err)
		}
		decDur := time.Since(t0)

		p := RDPoint{
			Divisions:       div,
			CompressedBytes: res.CompressedBytes,
			BitsPerValue:    8 * float64(res.CompressedBytes) / float64(f.Len()),
			CompressionRate: stats.CompressionRate(res.CompressedBytes, res.RawBytes),
			EncodeSeconds:   enc.Seconds(),
			DecodeSeconds:   decDur.Seconds(),
		}
		approx := dec.Data()
		if p.PSNR, err = stats.PSNR(orig, approx); err != nil {
			return nil, err
		}
		if p.MaxAbs, err = stats.MaxAbsError(orig, approx); err != nil {
			return nil, err
		}
		if p.MaxRel, err = stats.MaxRelError(orig, approx); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
