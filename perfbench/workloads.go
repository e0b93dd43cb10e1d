package main

import (
	"fmt"
	"math"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/faultsim"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/server"
	"lossyckpt/internal/synth"
)

// tenantSpec is one tenant of a workload's daemon. Each tenant gets one
// closed-loop client of its own; the clients take turns.
type tenantSpec struct {
	name  string
	keep  int
	dedup bool
}

// workload is one traffic mix: the daemon's tenants, the codec every
// save names, how often a client restores, and the generator of its
// inputs.
type workload struct {
	name         string
	codec        string
	tenants      []tenantSpec
	restoreEvery int // a client restores after every restoreEvery saves
	// maxRelErr bounds the Eq. 6 relative error (a fraction) of every
	// restored field. Zero means restores must be bit-exact.
	maxRelErr float64
	// inputs builds one source per tenant from the seed. It runs before
	// the set-up clock starts.
	inputs func(seed int64) ([]source, error)
}

// source hands a client the fields of its next save. The fields stay
// valid, and are what a restore must return, until the next call.
type source interface {
	next(save int) []server.NamedField
}

// bulkShape is four times NICAM's 1156×82×2 (paper §IV-A) along x.
var bulkShape = []int{4624, 82, 2}

const (
	nicamSnapshots = 6 // distinct climate states the client cycles through
	nicamSpinUp    = 10
	nicamStride    = 4 // model steps between two snapshots
	sparseElems    = 2 << 20
	sparseMutate   = 0.01
	sparsePatches  = 256   // pre-generated 1% mutations, more than a run saves
	nicamMaxRelErr = 0.001 // Eq. 6 bound on every restored field, as a fraction
)

var workloads = []*workload{
	{
		name:         "nicam-lossy",
		codec:        "lossy",
		tenants:      []tenantSpec{{name: "nicam", keep: 3}},
		restoreEvery: 4,
		maxRelErr:    nicamMaxRelErr,
		inputs:       nicamInputs,
	},
	{
		name:         "bulk-lz4",
		codec:        "lz4",
		tenants:      []tenantSpec{{name: "bulk0", keep: 3}, {name: "bulk1", keep: 3}},
		restoreEvery: 1,
		inputs:       bulkInputs,
	},
	{
		name:         "sparse-dedup",
		codec:        "none",
		tenants:      []tenantSpec{{name: "sparse", keep: 8, dedup: true}},
		restoreEvery: 8,
		inputs:       sparseInputs,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// snapshots cycles through pre-computed field sets.
type snapshots [][]server.NamedField

func (s snapshots) next(save int) []server.NamedField { return s[save%len(s)] }

// nicamInputs steps the climate model and keeps every nicamStride-th
// state: five fields of 1156×82×2, 7.6 MB per save.
func nicamInputs(seed int64) ([]source, error) {
	cfg := climate.DefaultConfig()
	cfg.Seed = seed
	m, err := climate.New(cfg)
	if err != nil {
		return nil, err
	}
	m.StepN(nicamSpinUp)
	snaps := make(snapshots, nicamSnapshots)
	for i := range snaps {
		m.StepN(nicamStride)
		for _, nf := range m.Fields() {
			snaps[i] = append(snaps[i], server.NamedField{Name: nf.Name, Field: nf.Field.Clone()})
		}
	}
	return []source{snaps}, nil
}

// bulkInputs gives each tenant one smooth and one turbulent synth field
// of 4624×82×2 (6 MB each, a 12 MB body per save).
func bulkInputs(seed int64) ([]source, error) {
	srcs := make([]source, 2)
	for t := range srcs {
		var set []server.NamedField
		for k, kind := range []synth.Kind{synth.Smooth, synth.Turbulent} {
			f, err := synth.Generate(kind, seed*1000+int64(2*t+k), bulkShape...)
			if err != nil {
				return nil, err
			}
			set = append(set, server.NamedField{Name: kind.String(), Field: f})
		}
		srcs[t] = snapshots{set}
	}
	return srcs, nil
}

// patch is one pre-generated faultsim.MutateSparse step: a contiguous
// run of fresh values starting at start, wrapping around the array.
type patch struct {
	start  int
	values []float64
}

// sparseState is the 2 M-element dedup workload's array. Every save
// first applies the next pre-generated 1% mutation.
type sparseState struct {
	field   *grid.Field
	patches []patch
}

func (s *sparseState) next(save int) []server.NamedField {
	p := s.patches[save%len(s.patches)]
	d := s.field.Data()
	for k, v := range p.values {
		d[(p.start+k)%len(d)] = v
	}
	return []server.NamedField{{Name: "state", Field: s.field}}
}

func sparseInputs(seed int64) ([]source, error) {
	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{Elems: sparseElems, MutateFraction: sparseMutate, Seed: seed})
	if err != nil {
		return nil, err
	}
	// Record what MutateSparse writes by letting it overwrite a NaN
	// canvas: the mutated run is the only finite stretch.
	canvas := grid.MustNew(sparseElems)
	canvas.Fill(math.NaN())
	d := canvas.Data()
	count := int(sparseMutate * float64(len(d))) // as MutateSparse sizes the run
	st := &sparseState{field: app.Field(), patches: make([]patch, sparsePatches)}
	for i := range st.patches {
		faultsim.MutateSparse(canvas, sparseMutate, seed, i+1)
		start := 0
		for ; start < len(d) && math.IsNaN(d[start]); start++ {
		}
		if start == 0 && !math.IsNaN(d[len(d)-1]) { // the run wraps around the end
			for start = len(d) - 1; !math.IsNaN(d[start-1]); start-- {
			}
		}
		p := patch{start: start, values: make([]float64, count)}
		for k := range p.values {
			j := (start + k) % len(d)
			p.values[k] = d[j]
			d[j] = math.NaN()
		}
		st.patches[i] = p
	}
	return []source{st}, nil
}

// rawBytes is the uncompressed size of a field set.
func rawBytes(fields []server.NamedField) int64 {
	var n int64
	for _, nf := range fields {
		n += int64(nf.Field.Bytes())
	}
	return n
}
