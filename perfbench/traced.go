package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/server"
	"lossyckpt/internal/store"
)

// inproc is a checkpoint daemon built from server.New in this process,
// served over loopback exactly as lossyckptd serves it.
type inproc struct {
	s    *server.Server
	srv  *obs.Server
	base string
}

func startInProc(w *workload, dir string, fsFor map[string]store.FS) (*inproc, error) {
	reg := obs.NewRegistry()
	cfg := server.Config{Observer: reg}
	for _, t := range w.tenants {
		cfg.Tenants = append(cfg.Tenants, server.TenantConfig{
			Name: t.name, Token: tokenFor(t), Dir: filepath.Join(dir, t.name), Keep: t.keep, Dedup: t.dedup, FS: fsFor[t.name]})
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", s.Handler())
	mux.Handle("/", reg.Handler())
	srv, err := obs.ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &inproc{s: s, srv: srv, base: "http://" + srv.Addr()}, nil
}

func (p *inproc) close() {
	p.srv.Close()
	p.s.Close()
}

// record is one operation's per-layer breakdown, in metric units.
type record map[string]float64

// tracer replays one client's operations through the layers' public
// functions: the same inputs, the same calls in the same order as the
// daemon makes them, with a span around each call. It keeps a replica
// store that receives the same saves as the tenant's store.
type tracer struct {
	w        *workload
	dedup    bool
	rec      *recorder
	tenantFS *timingFS // the tenant's FS inside the traced daemon
	target   *timedTarget
	stages   *stageReplay
	restorer *ckpt.Manager
	scratch  []server.NamedField // what the restorer restores into
	lastGen  uint64

	saves, restores []record
}

func newTracer(w *workload, dir string, t tenantSpec, tenantFS *timingFS) (*tracer, error) {
	rec := newRecorder()
	st, err := store.Open(filepath.Join(dir, t.name), store.Options{
		Keep: t.keep, Dedup: t.dedup, FS: newTimingFS(store.OsFS{}, rec)})
	if err != nil {
		return nil, err
	}
	codec, err := ckpt.CodecByName(w.codec)
	if err != nil {
		return nil, err
	}
	return &tracer{
		w: w, dedup: t.dedup, rec: rec, tenantFS: tenantFS,
		target:   &timedTarget{Target: st, rec: rec},
		stages:   &stageReplay{codec: w.codec, rec: rec},
		restorer: ckpt.NewManager(&timedCodec{inner: codec, rec: rec}, 0),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// after is the afterOp hook of the traced run.
func (t *tracer) after(c *client, op opKind, fields []server.NamedField, lat time.Duration) error {
	fsOp := t.tenantFS.take()
	var (
		r   record
		err error
	)
	if op == opSave {
		r, err = t.replaySave(c.saves-1, fields)
	} else {
		r, err = t.replayRestore(c.expected)
	}
	if err != nil {
		return err
	}
	r["e2e_ms"] = ms(lat)
	for i, name := range fsOpNames {
		r["fs."+name+"_ms"] = ms(fsOp.d[i])
	}
	r["fs.total_ms"] = ms(fsOp.total())
	if op == opSave {
		r["fs.syncs_per_save"] = float64(fsOp.n[fsSync] + fsOp.n[fsSyncDir])
		r["fs.creates_per_save"] = float64(fsOp.n[fsCreate])
		r["fs.bytes_per_save"] = float64(fsOp.bytes[fsWrite])
		if n := r["cas.chunks_per_save"]; n > 0 {
			r["cas.new_chunk_frac"] = float64(fsOp.chunks) / n
		}
		t.saves = append(t.saves, r)
	} else {
		t.restores = append(t.restores, r)
	}
	return nil
}

// wire times the wire format both ways on fields: one body encoded and
// decoded, as every save and every restore does once.
func (t *tracer) wire(fields []server.NamedField) ([]server.NamedField, int, error) {
	var (
		buf     bytes.Buffer
		decoded []server.NamedField
	)
	err := t.rec.span("server.wire_encode", func() error { return server.WriteFields(&buf, fields) })
	if err == nil {
		err = t.rec.span("server.wire_decode", func() (err error) {
			decoded, err = server.ReadFields(bytes.NewReader(buf.Bytes()))
			return err
		})
	}
	return decoded, buf.Len(), err
}

// replaySave runs what the daemon's save handler runs: decode the body,
// register the fields with a fresh manager and stream a checkpoint into
// the store, then the codec's stages one by one, and for a dedup store
// the chunker over the committed stream.
func (t *tracer) replaySave(step int, fields []server.NamedField) (record, error) {
	decoded, body, err := t.wire(fields)
	if err != nil {
		return nil, err
	}
	codec, err := ckpt.CodecByName(t.w.codec)
	if err != nil {
		return nil, err
	}
	mgr := ckpt.NewManager(&timedCodec{inner: codec, rec: t.rec}, 0)
	grids := make([]*grid.Field, len(decoded))
	for i, nf := range decoded {
		if err := mgr.Register(nf.Name, nf.Field); err != nil {
			return nil, err
		}
		grids[i] = nf.Field
	}
	var gen store.Generation
	err = t.rec.span("ckpt.checkpoint", func() (err error) {
		_, gen, err = mgr.CheckpointStreamTo(t.target, step)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.lastGen = gen.Seq
	if t.scratch == nil {
		for _, nf := range decoded {
			f := grid.MustNew(nf.Field.Shape()...)
			t.scratch = append(t.scratch, server.NamedField{Name: nf.Name, Field: f})
			if err := t.restorer.Register(nf.Name, f); err != nil {
				return nil, err
			}
		}
	}
	if err := t.stages.save(grids); err != nil {
		return nil, err
	}
	chunks := 0
	if t.dedup {
		stream, err := t.target.Target.ReadGeneration(gen.Seq)
		if err == nil {
			chunks, err = chunkReplay(t.rec, stream)
		}
		if err != nil {
			return nil, err
		}
	}
	incl, self, err := t.rec.take()
	if err != nil {
		return nil, err
	}
	r := record{
		"server.body_mb":          float64(body) / 1e6,
		"server.wire_encode_ms":   ms(self["server.wire_encode"]),
		"server.wire_decode_ms":   ms(self["server.wire_decode"]),
		"ckpt.checkpoint_self_ms": ms(self["ckpt.checkpoint"] + self[spanFeed]),
		"core.compress_ms":        ms(self[spanEncode]),
		"store.commit_ms":         ms(incl[spanCommit]),
		"store.commit_self_ms":    ms(self[spanCommit] + self[spanSink] - self[spanChunk]),
		"entropy.in_mb":           float64(t.stages.in) / 1e6,
		"entropy.out_mb":          float64(t.stages.out) / 1e6,
		"cas.chunks_per_save":     float64(chunks),
	}
	stages := 0.0
	for _, name := range saveStages {
		r[name] = ms(self[name])
		stages += r[name]
	}
	r["core.self_ms"] = r["core.compress_ms"] - stages
	r[spanChunk] = ms(self[spanChunk])
	return r, nil
}

var (
	saveStages    = []string{spanTransform, spanQuantize, spanEncodeB, spanFormat, spanShuffle, spanEntComp}
	restoreStages = []string{spanEntDecomp, spanUnshuffle, spanParse, spanDecodeB, spanInverse}
)

// replayRestore runs a restore of the replica store's latest generation
// through a manager with the wrapped codec, checks it against what the
// client saved, then the wire format and the codec's inverse stages.
// The daemon restores with ckpt.LoadLatest, which builds its own codec
// from the stream header; Manager.RestoreLatest reads the same stream
// and calls the same Decode on a codec this tracer can wrap.
func (t *tracer) replayRestore(want []server.NamedField) (record, error) {
	var sr *ckpt.StoreRestore
	err := t.rec.span("ckpt.restore", func() (err error) { sr, err = t.restorer.RestoreLatest(t.target); return err })
	if err != nil {
		return nil, err
	}
	if sr.Generation != t.lastGen || sr.Partial {
		return nil, gateErr("traced restore: generation %d (partial %v), last save was %d", sr.Generation, sr.Partial, t.lastGen)
	}
	if _, err := compareFields(want, t.scratch, t.w.maxRelErr); err != nil {
		return nil, err
	}
	if _, _, err := t.wire(t.scratch); err != nil {
		return nil, err
	}
	if err := t.stages.restore(); err != nil {
		return nil, err
	}
	incl, self, err := t.rec.take()
	if err != nil {
		return nil, err
	}
	r := record{
		"server.wire_encode_ms":   ms(self["server.wire_encode"]),
		"server.wire_decode_ms":   ms(self["server.wire_decode"]),
		"ckpt.restore_self_ms":    ms(self["ckpt.restore"]),
		"core.decompress_ms":      ms(self[spanDecode]),
		"store.read_ms":           ms(incl[spanRead]),
		"store.read_self_ms":      ms(self[spanRead]),
		spanDequant:               ms(self[spanDequant]),
		"core.decompress_self_ms": ms(self[spanDecode]),
	}
	for _, name := range restoreStages {
		r[name] = ms(self[name])
		r["core.decompress_self_ms"] -= r[name]
	}
	return r, nil
}

// traceResult is what a traced run measured.
type traceResult struct {
	untraced, traced    totals
	saves, restores     []record
	topSave, topRestore string
}

// runTraced drives an in-process daemon twice with the workload's
// clients: for a third of d with nothing traced, then for the rest with
// each tenant's store on a timing FS and every operation replayed
// through the layers after its reply.
func runTraced(w *workload, srcs []source, workdir string, d time.Duration) (*traceResult, error) {
	res := &traceResult{}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	plain := func() (totals, error) {
		p, err := startInProc(w, filepath.Join(workdir, "untraced"), nil)
		if err != nil {
			return totals{}, err
		}
		defer p.close()
		clients := make([]*client, len(w.tenants))
		for k, t := range w.tenants {
			clients[k] = newClient(w, t, p.base, hc, srcs[k])
		}
		if err := warmUp(clients, nil); err != nil {
			return totals{}, err
		}
		_, err = measure(clients, d/3, nil)
		return pool(clients), err
	}
	var err error
	if res.untraced, err = plain(); err != nil {
		return nil, err
	}

	fsFor := map[string]store.FS{}
	tracers := map[string]*tracer{}
	for _, t := range w.tenants {
		tfs := newTimingFS(store.OsFS{}, nil)
		fsFor[t.name] = tfs
		if tracers[t.name], err = newTracer(w, filepath.Join(workdir, "replica"), t, tfs); err != nil {
			return nil, err
		}
	}
	p, err := startInProc(w, filepath.Join(workdir, "traced"), fsFor)
	if err != nil {
		return nil, err
	}
	defer p.close()
	clients := make([]*client, len(w.tenants))
	for k, t := range w.tenants {
		clients[k] = newClient(w, t, p.base, hc, srcs[k])
	}
	hook := func(c *client, op opKind, fields []server.NamedField, lat time.Duration) error {
		return tracers[c.tenant.name].after(c, op, fields, lat)
	}
	if err := warmUp(clients, hook); err != nil {
		return nil, err
	}
	for _, tr := range tracers {
		tr.saves, tr.restores = nil, nil
	}
	if _, err := measure(clients, d-d/3, hook); err != nil {
		return nil, err
	}
	res.traced = pool(clients)
	for _, t := range w.tenants {
		res.saves = append(res.saves, tracers[t.name].saves...)
		res.restores = append(res.restores, tracers[t.name].restores...)
	}
	if len(res.saves) == 0 || len(res.restores) == 0 {
		return nil, fmt.Errorf("traced run too short: %d saves, %d restores", len(res.saves), len(res.restores))
	}
	return res, nil
}

// layerMetrics reduces a traced run to the per-layer metrics: the median
// of each layer's per-operation value, the residual of the traced
// end-to-end median over the layers' summed self times, and the
// tracing overhead against the untraced run.
func (res *traceResult) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		switch m.op {
		case opSave:
			out[m.name] = medianOf(res.saves, m.name)
		case opRestore:
			out[m.name] = medianOf(res.restores, m.name)
		}
	}
	all := append(append([]record(nil), res.saves...), res.restores...)
	out["server.wire_encode_ms"] = medianOf(all, "server.wire_encode_ms")
	out["server.wire_decode_ms"] = medianOf(all, "server.wire_decode_ms")

	tracedSave := summarise(res.traced.saveLat).p50
	tracedRestore := summarise(res.traced.restoreLat).p50
	out["trace.save_p50_ms"] = tracedSave
	out["trace.restore_p50_ms"] = tracedRestore
	out["trace.overhead_pct"] = 100 * (tracedSave/summarise(res.untraced.saveLat).p50 - 1)
	out["trace.restore_overhead_pct"] = 100 * (tracedRestore/summarise(res.untraced.restoreLat).p50 - 1)

	wire := out["server.wire_encode_ms"] + out["server.wire_decode_ms"]
	saveShares := map[string]float64{
		"server":    wire,
		"ckpt":      out["ckpt.checkpoint_self_ms"],
		"core":      out["core.self_ms"],
		"wavelet":   out[spanTransform],
		"quant":     out[spanQuantize],
		"encode":    out[spanEncodeB],
		"container": out[spanFormat],
		"entropy":   out[spanShuffle] + out[spanEntComp],
		"store":     out["store.commit_self_ms"],
		"cas":       out[spanChunk],
		"fs":        medianOf(res.saves, "fs.total_ms"),
	}
	restoreShares := map[string]float64{
		"server":    wire,
		"ckpt":      out["ckpt.restore_self_ms"],
		"core":      out["core.decompress_self_ms"],
		"wavelet":   out[spanInverse],
		"encode":    out[spanDecodeB],
		"container": out[spanParse],
		"entropy":   out[spanEntDecomp] + out[spanUnshuffle],
		"store":     out["store.read_self_ms"],
		"fs":        medianOf(res.restores, "fs.total_ms"),
	}
	out["http.residual_ms"] = tracedSave - sum(saveShares)
	out["http.restore_residual_ms"] = tracedRestore - sum(restoreShares)
	saveShares["http"] = out["http.residual_ms"]
	restoreShares["http"] = out["http.restore_residual_ms"]
	res.topSave = top(saveShares, tracedSave)
	res.topRestore = top(restoreShares, tracedRestore)
	return out
}

func medianOf(rs []record, name string) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r[name]
	}
	return median(v)
}

func sum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// top names the layer with the largest self-time share of total, with
// the share of each layer above one percent beside it.
func top(shares map[string]float64, total float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	s := fmt.Sprintf("%s (%.0f%%)", names[0], 100*shares[names[0]]/total)
	for _, n := range names[1:] {
		if pct := 100 * shares[n] / total; pct >= 1 {
			s += fmt.Sprintf(", %s %.0f%%", n, pct)
		}
	}
	return s
}
