// storeio.go connects the checkpoint manager to the crash-safe on-disk
// store: CheckpointTo commits one framed stream as a new generation,
// RestoreLatest walks the retention ring newest-to-oldest and falls
// back across generations — and, as a last resort, to frame-level
// partial recovery — until it finds restorable state. LoadLatest is the
// registration-free variant for tooling that discovers the variables
// and shapes from the stream itself.
package ckpt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// ErrStoreEmpty indicates no generation in the store could be restored,
// even partially.
var ErrStoreEmpty = errors.New("ckpt: no restorable generation in store")

// CheckpointTo compresses the registered arrays and commits the framed
// stream atomically as the store's next generation. st may be a plain
// *store.Store or a *store.ReplicatedStore — the pipeline is
// replication-agnostic. The returned Generation records the committed
// sequence number, size and CRC.
func (m *Manager) CheckpointTo(st store.Target, step int) (rep *Report, gen store.Generation, err error) {
	// Open the checkpoint wide event here so the store's commit and vote
	// records become children of the same operation; the inner
	// Checkpoint call enriches it (see journal.go).
	op := m.journal().Begin("ckpt.checkpoint", "codec", m.codec.Name(), "mode", "buffered")
	if op != nil {
		op.SetStep(step)
		m.curOp = op
		defer func() {
			m.curOp = nil
			op.SetSeq(gen.Seq)
			op.End(err)
		}()
	}
	gen, err = st.CommitFunc(step, func(w io.Writer) error {
		var cerr error
		rep, cerr = m.Checkpoint(w, step)
		return cerr
	})
	if err != nil {
		return nil, store.Generation{}, err
	}
	return rep, gen, nil
}

// StoreRestore reports which generation a store-level restore used and
// how complete it was.
type StoreRestore struct {
	// Generation is the sequence number restored from.
	Generation uint64
	// Step is the application step recorded in the restored stream.
	Step int
	// Partial is true when only a subset of registered arrays could be
	// restored (frame-level recovery from a damaged generation).
	Partial bool
	// Restored and Skipped name the registered arrays that were / were
	// not recovered. Skipped is empty for full restores.
	Restored []string
	Skipped  []string
	// Report is the underlying restore accounting.
	Report *Report
}

// RestoreLatest restores the registered arrays from the newest
// restorable generation. The fallback order is: full verified restore
// from the newest generation backwards, then — only if no generation
// restores completely — frame-level partial recovery, again newest
// first, taking the first generation that yields at least one verified
// array. Every failure is carried in the returned error if nothing at
// all is restorable.
func (m *Manager) RestoreLatest(st store.Target) (sr *StoreRestore, err error) {
	op := m.journal().Begin("ckpt.restore_latest", "codec", m.codec.Name())
	if op != nil {
		m.curOp = op
		defer func() {
			m.curOp = nil
			if sr != nil {
				op.SetSeq(sr.Generation)
				op.SetStep(sr.Step)
				if sr.Partial {
					op.Set("partial", "true")
				}
			}
			op.End(err)
		}()
	}
	err = walkLatest(context.Background(), st, m.observer(), m.journal(), func(seq uint64, data []byte, lenient bool) error {
		rep, skipped, err := m.restore(bytes.NewReader(data), lenient)
		if err != nil {
			return err
		}
		sr = &StoreRestore{
			Generation: seq,
			Step:       rep.Step,
			Partial:    len(skipped) > 0,
			Restored:   namesOf(rep),
			Skipped:    skipped,
			Report:     rep,
		}
		return nil
	})
	return sr, err
}

// walkLatest is the one generation walk behind RestoreLatest and
// LoadLatestCtx. It hands generations to try newest first: a strict
// pass over the copies whose size and CRC verify, then a lenient pass
// over every readable copy. The first try to succeed ends the walk. A
// generation the strict pass skips is counted in o and noted in j by
// reason; ctx is checked before every attempt.
func walkLatest(ctx context.Context, st store.Target, o *obs.Registry, j *journal.Journal, try func(seq uint64, data []byte, lenient bool) error) error {
	gens := st.Generations()
	var failures []error
	for _, lenient := range []bool{false, true} {
		for i := len(gens) - 1; i >= 0; i-- {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("ckpt: restore: %w", err)
			}
			seq := gens[i].Seq
			data, verified, err := st.ReadGenerationRaw(seq)
			reason := "read_error"
			switch {
			case err != nil:
			case !verified && !lenient:
				err, reason = store.ErrCorrupt, "unverified"
			default:
				if err = try(seq, data, lenient); err == nil {
					return nil
				}
				reason = "restore_error"
			}
			if lenient {
				failures = append(failures, fmt.Errorf("gen %d partial: %w", seq, err))
				continue
			}
			failures = append(failures, fmt.Errorf("gen %d: %w", seq, err))
			recordFallback(o, j, seq, reason)
		}
	}
	return fmt.Errorf("%w: %d generations tried: %v", ErrStoreEmpty, len(gens), errors.Join(failures...))
}

// recordFallback counts one generation the restore walk had to skip,
// labeled with why, and leaves a trace event naming the generation.
func recordFallback(o *obs.Registry, j *journal.Journal, seq uint64, reason string) {
	j.Note("ckpt.store_fallback", "gen", fmt.Sprint(seq), "reason", reason)
	if o == nil {
		return
	}
	o.Counter(MetricStoreFallbacks, "reason", reason).Inc()
	o.Event("ckpt.store_fallback", "gen", seq, "reason", reason)
}

func namesOf(rep *Report) []string {
	names := make([]string, len(rep.Entries))
	for i, e := range rep.Entries {
		names[i] = e.Name
	}
	return names
}

// LoadedField is one array recovered by LoadLatest.
type LoadedField struct {
	Name  string
	Field *grid.Field
	// Guarantee is the guard annotation the entry carried (nil for
	// non-guard codecs): the quality promise the generation restores with.
	Guarantee *guard.Annotation
}

// LoadedCheckpoint is the registration-free result of LoadLatest.
type LoadedCheckpoint struct {
	Generation uint64
	Step       int
	Codec      string
	// Partial is true when some declared frames could not be recovered.
	Partial bool
	Fields  []LoadedField
	// SkippedFrames counts declared frames that failed verification or
	// decoding.
	SkippedFrames int
}

// LoadLatest reads the newest restorable generation without any
// registration: variables, shapes and the codec are discovered from the
// stream. Like RestoreLatest it walks generations newest-to-oldest,
// preferring a fully verified load, then falls back to frame-level
// partial recovery. workers bounds lossy decode parallelism (0 =
// GOMAXPROCS). The restore is recorded in the process default journal.
func LoadLatest(st store.Target, workers int) (lc *LoadedCheckpoint, err error) {
	return LoadLatestCtx(context.Background(), st, workers, journal.Default())
}

// LoadLatestCtx is LoadLatest bound to a request context and a flight
// recorder: cancellation is observed between generation attempts, so a
// restore walking a deep retention ring of damaged generations stops
// when its request dies, and the restore's wide event goes to j (nil
// records nothing).
func LoadLatestCtx(ctx context.Context, st store.Target, workers int, j *journal.Journal) (lc *LoadedCheckpoint, err error) {
	op := j.Begin("ckpt.restore", "mode", "load_latest")
	defer func() {
		if op == nil {
			return
		}
		if lc != nil {
			op.SetStep(lc.Step)
			op.SetSeq(lc.Generation)
			op.Set("codec", lc.Codec)
			for _, lf := range lc.Fields {
				op.Entry(journal.Entry{Var: lf.Name})
			}
			if lc.SkippedFrames > 0 {
				op.Set("skipped_frames", fmt.Sprint(lc.SkippedFrames))
			}
		}
		op.End(err)
	}()
	err = walkLatest(ctx, st, obs.Default(), j, func(seq uint64, data []byte, lenient bool) error {
		loaded, err := loadStream(bytes.NewReader(data), workers, lenient)
		if err != nil {
			return err
		}
		loaded.Generation = seq
		lc = loaded
		return nil
	})
	return lc, err
}

// loadStream decodes a checkpoint stream with no registration. In
// lenient mode damaged frames are skipped and a torn tail ends the
// scan; in strict mode any damage is fatal.
func loadStream(r io.Reader, workers int, lenient bool) (*LoadedCheckpoint, error) {
	sc, err := openStream(r)
	if err != nil {
		return nil, err
	}
	codec, err := codecFor(sc.hdr.Codec, workers)
	if err != nil {
		return nil, err
	}
	lc := &LoadedCheckpoint{Step: sc.hdr.Step, Codec: sc.hdr.Codec}
	lc.SkippedFrames, err = sc.each(lenient, func(ent *rawEntry) error {
		f, err := codec.Decode(ent.Payload, ent.Shape)
		if err != nil {
			return fmt.Errorf("ckpt: decoding %q: %w", ent.Name, err)
		}
		lc.Fields = append(lc.Fields, LoadedField{
			Name: ent.Name, Field: f, Guarantee: entryGuarantee(ent.Payload)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	lc.Partial = lc.SkippedFrames > 0
	if len(lc.Fields) == 0 {
		return nil, fmt.Errorf("%w: no frame verified", ErrFormat)
	}
	return lc, nil
}

// codecFor builds the codec a stream header names, with lossy decode
// parallelism bounded by workers.
func codecFor(name string, workers int) (Codec, error) {
	codec, err := CodecByName(name)
	if lossy, ok := codec.(*Lossy); ok {
		lossy.Options.Workers = workers
	}
	return codec, err
}
