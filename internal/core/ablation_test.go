package core

import (
	"math"
	"testing"

	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
)

func TestPerBandQuantRoundTrip(t *testing.T) {
	f := smooth3D(96, 20, 2, 21)
	for levels := 1; levels <= 2; levels++ {
		opts := DefaultOptions()
		opts.PerBandQuant = true
		opts.Levels = levels
		g, res, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatalf("levels %d: %v", levels, err)
		}
		s, _ := stats.Compare(f.Data(), g.Data())
		if s.AvgPct > 1 {
			t.Errorf("levels %d: per-band avg error %.4f%%", levels, s.AvgPct)
		}
		if res.CompressionRatePct() >= 100 {
			t.Errorf("levels %d: per-band cr %.1f%%", levels, res.CompressionRatePct())
		}
	}
}

func TestPerBandStreamSelfDescribing(t *testing.T) {
	// The PerBand flag must travel in the stream: decompressing a per-band
	// archive needs no out-of-band information.
	f := smooth3D(64, 16, 2, 22)
	opts := DefaultOptions()
	opts.PerBandQuant = true
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(res.Data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SameShape(g) {
		t.Fatal("shape lost")
	}
}

func TestPerBandAdaptsToBandRanges(t *testing.T) {
	// Construct data where one direction is far rougher than the other:
	// pooled quantization must size its partitions for the widest band,
	// while per-band quantization adapts — so per-band error ≤ pooled
	// error with the simple quantizer.
	f := smooth3D(128, 32, 2, 23)
	d := f.Data()
	for i := range d {
		if i%2 == 0 {
			d[i] += 30 * math.Sin(float64(i)) // rough along the last axis
		}
	}
	err := func(perBand bool) float64 {
		opts := DefaultOptions()
		opts.Method = quant.Simple
		opts.Divisions = 16
		opts.PerBandQuant = perBand
		g, _, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := stats.Compare(f.Data(), g.Data())
		return s.AvgPct
	}
	pooled, perBand := err(false), err(true)
	if perBand > pooled*1.05 {
		t.Errorf("per-band error %.5f%% worse than pooled %.5f%%", perBand, pooled)
	}
}

func TestZeroThresholdImprovesCompression(t *testing.T) {
	f := smooth3D(128, 41, 2, 24)
	run := func(th float64) (float64, float64) {
		opts := DefaultOptions()
		opts.ZeroThreshold = th
		g, res, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := stats.Compare(f.Data(), g.Data())
		return res.CompressionRatePct(), s.MaxPct
	}
	// The threshold must sit above the data's noise floor (smooth3D adds
	// 0.05σ noise, so high-band noise coefficients are ≈0.03) to collapse
	// the noise codes into one run for gzip.
	const th = 0.2
	crOff, _ := run(0)
	crOn, errOn := run(th)
	if crOn >= crOff {
		t.Errorf("thresholding did not improve cr: %.2f%% vs %.2f%%", crOn, crOff)
	}
	// The extra error must stay bounded by ~threshold/range.
	min, max := f.MinMax()
	bound := 100 * 4 * th / (max - min) // 4x slack for wavelet fan-out
	if errOn > 1+bound {
		t.Errorf("thresholded max error %.4f%% above bound", errOn)
	}
}

func TestZeroThresholdValidation(t *testing.T) {
	f := smooth3D(16, 8, 2, 25)
	opts := DefaultOptions()
	opts.ZeroThreshold = -1
	if _, err := Compress(f, opts); err == nil {
		t.Error("negative threshold accepted")
	}
	opts.ZeroThreshold = math.NaN()
	if _, err := Compress(f, opts); err == nil {
		t.Error("NaN threshold accepted")
	}
}

func TestPerBandWithProposedAndThreshold(t *testing.T) {
	// The three options compose.
	f := smooth3D(96, 20, 2, 26)
	opts := DefaultOptions()
	opts.PerBandQuant = true
	opts.ZeroThreshold = 0.005
	opts.Levels = 2
	g, res, err := RoundTrip(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := stats.Compare(f.Data(), g.Data())
	if s.AvgPct > 1 {
		t.Errorf("composed options avg error %.4f%%", s.AvgPct)
	}
	if res.CompressionRatePct() >= 100 {
		t.Errorf("composed options cr %.1f%%", res.CompressionRatePct())
	}
}

func TestErrorBoundOption(t *testing.T) {
	f := smooth3D(128, 20, 2, 41)
	for _, bound := range []float64{1.0, 0.05} {
		opts := DefaultOptions()
		opts.ErrorBound = bound
		g, res, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		if res.BoundUnreachable {
			t.Fatalf("bound %g unreachable on smooth data", bound)
		}
		if res.EffectiveDivisions < 1 || res.EffectiveDivisions > quant.MaxDivisions {
			t.Errorf("bound %g: effective divisions %d", bound, res.EffectiveDivisions)
		}
		// The wavelet adds ≤ a few ulps; the per-value error after the
		// inverse transform is bounded by ~2x the coefficient bound
		// (each output value mixes one low and one high coefficient per
		// level).
		maxAbs := 0.0
		for i := range f.Data() {
			d := f.Data()[i] - g.Data()[i]
			if d < 0 {
				d = -d
			}
			if d > maxAbs {
				maxAbs = d
			}
		}
		if maxAbs > 4*bound {
			t.Errorf("bound %g: reconstruction max abs error %g", bound, maxAbs)
		}
	}
}

func TestErrorBoundTighterNeedsMoreDivisions(t *testing.T) {
	f := smooth3D(128, 20, 2, 42)
	nAt := func(bound float64) int {
		opts := DefaultOptions()
		opts.ErrorBound = bound
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.EffectiveDivisions
	}
	loose, tight := nAt(1.0), nAt(0.01)
	if tight < loose {
		t.Errorf("tighter bound chose fewer divisions: %d vs %d", tight, loose)
	}
}

func TestErrorBoundUnreachableReported(t *testing.T) {
	// A bound of ~0 is unreachable for any lossy quantization of
	// non-constant data.
	f := smooth3D(64, 16, 2, 43)
	opts := DefaultOptions()
	opts.ErrorBound = 1e-300
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundUnreachable {
		t.Error("unreachable bound not reported")
	}
	// The stream is still valid.
	if _, err := Decompress(res.Data, 0); err != nil {
		t.Errorf("best-effort stream does not decode: %v", err)
	}
}

func TestErrorBoundValidation(t *testing.T) {
	f := smooth3D(16, 8, 2, 44)
	opts := DefaultOptions()
	opts.ErrorBound = math.NaN()
	if _, err := Compress(f, opts); err == nil {
		t.Error("NaN error bound accepted")
	}
	opts.ErrorBound = -0.5
	if _, err := Compress(f, opts); err == nil {
		t.Error("negative error bound accepted")
	}
}

func TestZlibFormatEndToEnd(t *testing.T) {
	f := smooth3D(64, 16, 2, 45)
	opts := DefaultOptions()
	opts.GzipFormat = gzipio.FormatZlib
	g, res, err := RoundTrip(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressionRatePct() >= 100 {
		t.Errorf("zlib cr %.1f%%", res.CompressionRatePct())
	}
	s, _ := stats.Compare(f.Data(), g.Data())
	if s.AvgPct > 1 {
		t.Errorf("zlib avg error %.4f%%", s.AvgPct)
	}
}
