package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/encode"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

// stageReplay re-runs one codec's pipeline stage by stage through the
// public functions of each layer, one span per stage. The daemon's
// codecs call the same functions in the same order (core.Compress and
// decompressWorkers for "lossy", ckpt.Gzip with LZ4 and shuffle for
// "lz4"); codec "none" has no stages.
type stageReplay struct {
	codec string
	rec   *recorder

	payloads [][]byte // the last save's per-field output, for the next restore
	shapes   [][]int
	in, out  int64 // entropy stage bytes of the last save
}

// Stage span names; they are also per-layer metric names.
const (
	spanTransform = "wavelet.transform_ms"
	spanInverse   = "wavelet.inverse_ms"
	spanQuantize  = "quant.quantize_ms"
	spanDequant   = "quant.dequantize_ms"
	spanEncodeB   = "encode.encode_ms"
	spanDecodeB   = "encode.decode_ms"
	spanFormat    = "container.format_ms"
	spanParse     = "container.parse_ms"
	spanEntComp   = "entropy.compress_ms"
	spanEntDecomp = "entropy.decompress_ms"
	spanShuffle   = "entropy.shuffle_ms"
	spanUnshuffle = "entropy.unshuffle_ms"
	spanChunk     = "cas.chunk_ms"
)

func (s *stageReplay) save(fields []*grid.Field) error {
	s.payloads, s.shapes, s.in, s.out = s.payloads[:0], s.shapes[:0], 0, 0
	for _, f := range fields {
		var (
			p   []byte
			in  int
			err error
		)
		switch s.codec {
		case "lossy":
			p, in, err = s.lossySave(f)
		case "lz4":
			p, in, err = s.lz4Save(f)
		default:
			continue
		}
		if err != nil {
			return err
		}
		s.payloads = append(s.payloads, p)
		s.shapes = append(s.shapes, f.Shape())
		s.in += int64(in)
		s.out += int64(len(p))
	}
	return nil
}

func (s *stageReplay) restore() error {
	for i, p := range s.payloads {
		var err error
		switch s.codec {
		case "lossy":
			err = s.lossyRestore(p, s.shapes[i])
		case "lz4":
			err = s.lz4Restore(p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// lossySave is core.Compress under core.DefaultOptions, stage by stage.
func (s *stageReplay) lossySave(f *grid.Field) ([]byte, int, error) {
	opts := core.DefaultOptions()
	var (
		plan      *wavelet.Plan
		work      *grid.Field
		high      []float64
		q         *quant.Quantization
		band      *encode.EncodedBand
		formatted []byte
		res       entropy.Result
	)
	err := s.rec.span(spanTransform, func() (err error) {
		if plan, err = wavelet.NewPlan(f.Shape(), opts.Levels, opts.Scheme); err != nil {
			return err
		}
		work = f.Clone()
		return plan.Transform(work)
	})
	if err == nil {
		err = s.rec.span(spanQuantize, func() (err error) {
			if high, err = plan.GatherHigh(work, nil); err != nil {
				return err
			}
			q, err = quant.Quantize(high, quant.Config{Method: opts.Method, Divisions: opts.Divisions, SpikeDivisions: opts.SpikeDivisions})
			if err == nil && q.NumQuantized > 0 {
				_, err = quant.MaxQuantizationError(high, q)
			}
			return err
		})
	}
	if err == nil {
		err = s.rec.span(spanEncodeB, func() (err error) { band, err = encode.Encode(high, q); return err })
	}
	if err == nil {
		err = s.rec.span(spanFormat, func() error {
			low, err := plan.GatherLow(work, nil)
			if err != nil {
				return err
			}
			arch := &container.Archive{
				Params: container.Params{Scheme: opts.Scheme, Method: opts.Method, Levels: opts.Levels,
					Divisions: opts.Divisions, SpikeDivisions: opts.SpikeDivisions},
				Shape: f.Shape(), Low: low, Bands: []*encode.EncodedBand{band},
			}
			formatted, err = arch.Bytes()
			return err
		})
	}
	if err == nil {
		err = s.rec.span(spanEntComp, func() (err error) {
			res, err = entropy.Compress(formatted, entropy.Params{GzipLevel: opts.GzipLevel, GzipMode: opts.GzipMode})
			return err
		})
	}
	if err != nil {
		return nil, 0, fmt.Errorf("lossy stage replay: %w", err)
	}
	return res.Compressed, len(formatted), nil
}

// lossyRestore is core's decompression, stage by stage. The program
// dequantizes inside EncodedBand.Decode; quant.Dequantize, the quant
// layer's own inverse, is timed on the same band beside it and is not
// on the restore path.
func (s *stageReplay) lossyRestore(payload []byte, shape []int) error {
	var (
		formatted []byte
		arch      *container.Archive
		high      []float64
	)
	err := s.rec.span(spanEntDecomp, func() (err error) { formatted, err = entropy.Decompress(payload, 0); return err })
	if err == nil {
		err = s.rec.span(spanParse, func() (err error) { arch, err = container.FromBytes(formatted); return err })
	}
	if err == nil {
		err = s.rec.span(spanDecodeB, func() (err error) { high, err = arch.Band().Decode(nil); return err })
	}
	if err == nil {
		b := arch.Band()
		mask := b.Bitmap.Bools()
		err = s.rec.span(spanDequant, func() error {
			_, err := quant.Dequantize(mask, b.Codes, b.Averages, b.Passthrough, make([]float64, 0, b.N))
			return err
		})
	}
	if err == nil {
		err = s.rec.span(spanInverse, func() error {
			plan, err := wavelet.NewPlan(arch.Shape, arch.Params.Levels, arch.Params.Scheme)
			if err != nil {
				return err
			}
			f, err := grid.New(shape...)
			if err == nil {
				err = plan.ScatterLow(f, arch.Low)
			}
			if err == nil {
				err = plan.ScatterHigh(f, high)
			}
			if err == nil {
				err = plan.Inverse(f)
			}
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("lossy stage replay: %w", err)
	}
	return nil
}

// lz4Save is ckpt.Gzip{Entropy: LZ4, Shuffle: true}.Encode with the
// shuffle pre-pass and the coder timed apart.
func (s *stageReplay) lz4Save(f *grid.Field) ([]byte, int, error) {
	raw := floatBytes(f.Data())
	var (
		shuffled []byte
		res      entropy.Result
	)
	s.rec.span(spanShuffle, func() error { shuffled = entropy.ShuffleBytes(raw, entropy.DefaultStride); return nil })
	err := s.rec.span(spanEntComp, func() (err error) {
		res, err = entropy.Compress(shuffled, entropy.Params{Codec: entropy.LZ4})
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("lz4 stage replay: %w", err)
	}
	return res.Compressed, len(raw), nil
}

func (s *stageReplay) lz4Restore(payload []byte) error {
	var out []byte
	err := s.rec.span(spanEntDecomp, func() (err error) { out, err = entropy.Decompress(payload, 0); return err })
	if err != nil {
		return fmt.Errorf("lz4 stage replay: %w", err)
	}
	s.rec.span(spanUnshuffle, func() error { entropy.UnshuffleBytes(out, entropy.DefaultStride); return nil })
	return nil
}

func floatBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// chunkReplay cuts a logical checkpoint stream the way a dedup store
// does (default chunker bounds, SHA-256 per chunk) and returns the
// chunk count.
func chunkReplay(rec *recorder, stream []byte) (int, error) {
	n := 0
	err := rec.span(spanChunk, func() error {
		ch, err := cas.NewChunker(cas.Config{}, func(chunk []byte) error {
			cas.Sum(chunk)
			n++
			return nil
		})
		if err != nil {
			return err
		}
		if _, err := ch.Write(stream); err != nil {
			return err
		}
		return ch.Flush()
	})
	return n, err
}
