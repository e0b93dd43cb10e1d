package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lossyckpt/internal/grid"
)

// TestReaderFixtures pins both stream layouts to committed bytes.
// testdata/sample-v1.ckpt and sample-v2.ckpt hold registerSample at step
// 720 under the gzip codec, written by the buffered (v1) and streaming
// (v2) writers. Every reader — Restore, the lenient restore, loadStream
// in both modes and InspectStream — must bring the sample back exactly.
func TestReaderFixtures(t *testing.T) {
	want := registerSample(t, NewManager(NewGzip(), 1))
	order := []string{"temperature", "pressure", "wind_u"}
	same := func(t *testing.T, how string, got map[string]*grid.Field) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d fields, want %d", how, len(got), len(want))
		}
		for name, f := range want {
			if g := got[name]; g == nil || !g.Equal(f) {
				t.Fatalf("%s: %q differs from the sample", how, name)
			}
		}
	}
	for _, fx := range []struct {
		file    string
		version uint16
	}{{"sample-v1.ckpt", fileVersion}, {"sample-v2.ckpt", fileVersionStream}} {
		t.Run(fx.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(data[4:]); v != fx.version {
				t.Fatalf("fixture is stream version %d, want %d", v, fx.version)
			}

			for _, lenient := range []bool{false, true} {
				m := NewManager(NewGzip(), 1)
				got := registerSample(t, m)
				scramble(got)
				rep, skipped, err := m.restore(bytes.NewReader(data), lenient)
				if err != nil || len(skipped) != 0 || rep.Step != 720 || len(rep.Entries) != 3 {
					t.Fatalf("restore lenient=%v: rep %+v skipped %v err %v", lenient, rep, skipped, err)
				}
				same(t, "restore", got)

				lc, err := loadStream(bytes.NewReader(data), 1, lenient)
				if err != nil || lc.Partial || lc.Step != 720 || lc.Codec != "gzip" {
					t.Fatalf("loadStream lenient=%v: %+v err %v", lenient, lc, err)
				}
				loaded := map[string]*grid.Field{}
				for i, lf := range lc.Fields {
					if lf.Name != order[i] {
						t.Fatalf("loadStream field %d is %q, want %q", i, lf.Name, order[i])
					}
					loaded[lf.Name] = lf.Field
				}
				same(t, "loadStream", loaded)
			}

			info, err := InspectStream(data)
			if err != nil || info.Codec != "gzip" || info.Step != 720 || len(info.Entries) != 3 {
				t.Fatalf("InspectStream: %+v err %v", info, err)
			}
			for i, e := range info.Entries {
				f := want[order[i]]
				if e.Name != order[i] || !slices.Equal(e.Shape, f.Shape()) || e.Entropy != "gzip" || e.Guarantee != nil || e.PayloadBytes == 0 {
					t.Fatalf("InspectStream entry %d: %+v", i, e)
				}
			}
		})
	}
}
