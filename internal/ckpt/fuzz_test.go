package ckpt

import (
	"bytes"
	"errors"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
)

// FuzzRestore hardens the checkpoint-stream readers and checks them
// against each other on arbitrary input. None may panic. A strict success
// (Restore, strict loadStream) must imply a lenient success that skipped
// nothing and produced identical fields. InspectStream must fail exactly
// when the strict scan fails, except for a malformed guard envelope,
// which only InspectStream checks.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CKPT"))

	// Seed with a real stream and systematic corruptions.
	seedMgr := NewManager(NewGzip(), 1)
	fld := smoothField(64, 8)
	if err := seedMgr.Register("x", fld); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := seedMgr.Checkpoint(&buf, 3); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	for _, pos := range []int{0, 6, len(raw) / 3, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xA5
		f.Add(mut)
	}

	// Same corruptions over the v2 segmented layout.
	var sbuf bytes.Buffer
	if _, err := seedMgr.CheckpointStream(&sbuf, 3); err != nil {
		f.Fatal(err)
	}
	sraw := sbuf.Bytes()
	f.Add(sraw)
	f.Add(sraw[:len(sraw)/2])
	for _, pos := range []int{6, 20, len(sraw) / 3, len(sraw) - 5} {
		mut := append([]byte(nil), sraw...)
		mut[pos] ^= 0xA5
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		register := func() (*Manager, *grid.Field) {
			mgr := NewManager(NewGzip(), 1)
			target := smoothField(64, 8)
			if err := mgr.Register("x", target); err != nil {
				t.Fatal(err)
			}
			return mgr, target
		}
		strict, strictX := register()
		lenient, lenientX := register()
		rep, err := strict.Restore(bytes.NewReader(data))
		lrep, skipped, lerr := lenient.restore(bytes.NewReader(data), true)
		if err == nil && (lerr != nil || len(skipped) != 0 || lrep.Step != rep.Step || !lenientX.Equal(strictX)) {
			t.Fatalf("strict restore succeeded, lenient: err %v skipped %v step %d/%d", lerr, skipped, lrep.Step, rep.Step)
		}

		lc, err := loadStream(bytes.NewReader(data), 1, false)
		if err == nil {
			llc, lerr := loadStream(bytes.NewReader(data), 1, true)
			if lerr != nil || llc.Partial || llc.SkippedFrames != 0 || len(llc.Fields) != len(lc.Fields) || llc.Step != lc.Step {
				t.Fatalf("strict load succeeded, lenient: %+v err %v", llc, lerr)
			}
			for i, lf := range lc.Fields {
				if llc.Fields[i].Name != lf.Name || !llc.Fields[i].Field.Equal(lf.Field) {
					t.Fatalf("lenient load field %d differs from strict", i)
				}
			}
		}

		scanErr := func() error {
			sc, err := openStream(bytes.NewReader(data))
			if err != nil {
				return err
			}
			_, err = sc.each(false, func(*rawEntry) error { return nil })
			return err
		}()
		_, inspectErr := InspectStream(data)
		if scanErr != nil && inspectErr == nil {
			t.Fatalf("InspectStream accepted a stream the strict scan rejects: %v", scanErr)
		}
		if scanErr == nil && inspectErr != nil && !errors.Is(inspectErr, guard.ErrEnvelope) {
			t.Fatalf("InspectStream failed on a stream the strict scan accepts: %v", inspectErr)
		}
	})
}
