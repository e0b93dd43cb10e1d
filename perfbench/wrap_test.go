package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/core"
	"lossyckpt/internal/faultsim"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/server"
	"lossyckpt/internal/store"
	"lossyckpt/internal/synth"
)

func testFields(t *testing.T) []server.NamedField {
	t.Helper()
	var out []server.NamedField
	for k, kind := range []synth.Kind{synth.Smooth, synth.Turbulent} {
		f, err := synth.Generate(kind, int64(k+1), 96, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, server.NamedField{Name: kind.String(), Field: f})
	}
	return out
}

// commit checkpoints fields twice into a store and returns the bytes of
// each generation.
func commit(t *testing.T, st store.Target, codec ckpt.Codec, fields []server.NamedField) [][]byte {
	t.Helper()
	var gens [][]byte
	for step := 0; step < 2; step++ {
		mgr := ckpt.NewManager(codec, 0)
		for _, nf := range fields {
			if err := mgr.Register(nf.Name, nf.Field); err != nil {
				t.Fatal(err)
			}
		}
		_, gen, err := mgr.CheckpointStreamTo(st, step)
		if err != nil {
			t.Fatal(err)
		}
		data, err := st.ReadGeneration(gen.Seq)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, data)
	}
	return gens
}

// TestWrappedCommitsIdentical pins that the traced run measures the
// program as it is: a checkpoint through the timed codec, target and FS
// commits the same bytes as one without them, and restores the same
// fields.
func TestWrappedCommitsIdentical(t *testing.T) {
	fields := testFields(t)
	for _, name := range []string{"none", "lz4", "lossy", "gzip", "fpc", "guard"} {
		for _, dedup := range []bool{false, true} {
			dir := t.TempDir()
			plain, err := store.Open(filepath.Join(dir, "plain"), store.Options{Dedup: dedup})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			inner, err := store.Open(filepath.Join(dir, "timed"), store.Options{Dedup: dedup, FS: newTimingFS(store.OsFS{}, rec)})
			if err != nil {
				t.Fatal(err)
			}
			timed := &timedTarget{Target: inner, rec: rec}
			c1, _ := ckpt.CodecByName(name)
			c2, _ := ckpt.CodecByName(name)
			want := commit(t, plain, c1, fields)
			got := commit(t, timed, &timedCodec{inner: c2, rec: rec}, fields)
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("%s dedup=%v: generation %d differs when wrapped", name, dedup, i)
				}
			}
			if _, self, err := rec.take(); err != nil || self[spanEncode] <= 0 || self[spanCommit] <= 0 {
				t.Fatalf("%s dedup=%v: spans %v, err %v", name, dedup, self, err)
			}

			c3, _ := ckpt.CodecByName(name)
			mgr := ckpt.NewManager(&timedCodec{inner: c3, rec: rec}, 0)
			var restored []server.NamedField
			for _, nf := range fields {
				f := grid.MustNew(nf.Field.Shape()...)
				mgr.Register(nf.Name, f)
				restored = append(restored, server.NamedField{Name: nf.Name, Field: f})
			}
			if _, err := mgr.RestoreLatest(timed); err != nil {
				t.Fatal(err)
			}
			lc, err := ckpt.LoadLatest(plain, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, lf := range lc.Fields {
				if !bitEqual(lf.Field.Data(), restored[i].Field.Data()) {
					t.Fatalf("%s dedup=%v: field %s restores differently when wrapped", name, dedup, lf.Name)
				}
			}
		}
	}
}

// TestStageReplayMatchesCodec pins that the stage-by-stage replay runs
// the codecs' pipelines: same entropy payload, and it decodes.
func TestStageReplayMatchesCodec(t *testing.T) {
	f := testFields(t)[1].Field
	s := &stageReplay{rec: newRecorder()}

	lossy, _, err := s.lossySave(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The replay goes through entropy.Compress, which adds its 8-byte
	// envelope around the DEFLATE stream core writes bare.
	if !bytes.Equal(lossy[8:], res.Data) {
		t.Fatal("lossy replay payload differs from core.Compress")
	}
	if err := s.lossyRestore(lossy, f.Shape()); err != nil {
		t.Fatal(err)
	}

	lz4, _, err := s.lz4Save(f)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ckpt.NewLZ4().Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// Same coder output; only the envelope's shuffle flag and stride differ.
	if !bytes.Equal(lz4[8:], enc.Payload[8:]) {
		t.Fatal("lz4 replay payload differs from the lz4 codec")
	}
	if err := s.lz4Restore(lz4); err != nil {
		t.Fatal(err)
	}
	if _, self, err := s.rec.take(); err != nil || self[spanEntComp] <= 0 || self[spanInverse] <= 0 {
		t.Fatalf("stage spans %v, err %v", self, err)
	}
}

// TestSparsePatchesReplayMutateSparse pins that the pre-generated
// patches reproduce faultsim's sparse workload step for step.
func TestSparsePatchesReplayMutateSparse(t *testing.T) {
	const seed = 7
	srcs, err := sparseInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{Elems: sparseElems, MutateFraction: sparseMutate, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		app.Step()
		got := srcs[0].next(i)[0].Field
		if !bitEqual(got.Data(), app.Field().Data()) {
			t.Fatalf("state after patch %d differs from MutateSparse step %d", i, i+1)
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	r.span("outer", func() error {
		return r.span("inner", func() error { return nil })
	})
	incl, self, err := r.take()
	if err != nil {
		t.Fatal(err)
	}
	if self["outer"] != incl["outer"]-incl["inner"] || self["inner"] != incl["inner"] {
		t.Fatalf("incl %v self %v", incl, self)
	}
	r.begin("open")
	if _, _, err := r.take(); err == nil {
		t.Fatal("take with an open span succeeded")
	}
}

// TestTracedRunSmall drives the traced run end to end on small inputs:
// two clients taking turns, every layer replayed, every metric finite.
func TestTracedRunSmall(t *testing.T) {
	for _, codec := range []string{"lossy", "lz4", "none"} {
		w := &workload{
			name:         "small-" + codec,
			codec:        codec,
			tenants:      []tenantSpec{{name: "a", keep: 3}, {name: "b", keep: 2, dedup: true}},
			restoreEvery: 2,
			inputs: func(int64) ([]source, error) {
				fields := testFields(t)
				return []source{snapshots{fields}, snapshots{fields}}, nil
			},
		}
		if codec == "lossy" {
			w.maxRelErr = nicamMaxRelErr
		}
		srcs, _ := w.inputs(0)
		res, err := runTraced(w, srcs, t.TempDir(), 2*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		for name, v := range res.layerMetrics() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: %s = %v", codec, name, v)
			}
		}
		if res.traced.failed != 0 || res.topSave == "" {
			t.Fatalf("%s: %d failed, top %q", codec, res.traced.failed, res.topSave)
		}
	}
}
