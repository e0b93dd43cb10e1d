package main

import "math"

// metricDef names one reported metric. The tables below are what
// BENCHMARK.json lists; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of a timed run, each a user-visible cost of
// the daemon.
var endToEnd = []metricDef{
	{"save_p50_ms", "ms", "lower"},
	{"save_tail_ms", "ms", "lower"},
	{"restore_p50_ms", "ms", "lower"},
	{"restore_tail_ms", "ms", "lower"},
	{"throughput_mb_s", "MB/s", "higher"},
	{"cpu_s_per_gb", "s/GB", "lower"},
	{"stored_bytes_per_byte", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// endToEndReported are printed with the end-to-end metrics but are not
// in the result line: each is zero on some workload (error on a lossless
// codec, failures on a healthy run), so a relative bound cannot apply.
// The correctness gate holds every restore to the error bound, and the
// result line's failed count carries failures.
var endToEndReported = []metricDef{
	{"max_rel_err_pct", "%", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// perLayer are the metrics of a traced run. Per-operation values are
// medians over the traced run's saves, restores or both.
var perLayer = []struct {
	metricDef
	op opKind // which operations the median runs over; opAny = derived
}{
	{metricDef{"server.wire_encode_ms", "ms", "lower"}, opAny},
	{metricDef{"server.wire_decode_ms", "ms", "lower"}, opAny},
	{metricDef{"server.body_mb", "MB", "lower"}, opSave},
	{metricDef{"http.residual_ms", "ms", "lower"}, opAny},
	{metricDef{"http.restore_residual_ms", "ms", "lower"}, opAny},
	{metricDef{"ckpt.checkpoint_self_ms", "ms", "lower"}, opSave},
	{metricDef{"ckpt.restore_self_ms", "ms", "lower"}, opRestore},
	{metricDef{spanTransform, "ms", "lower"}, opSave},
	{metricDef{spanInverse, "ms", "lower"}, opRestore},
	{metricDef{spanQuantize, "ms", "lower"}, opSave},
	{metricDef{spanDequant, "ms", "lower"}, opRestore},
	{metricDef{spanEncodeB, "ms", "lower"}, opSave},
	{metricDef{spanDecodeB, "ms", "lower"}, opRestore},
	{metricDef{spanFormat, "ms", "lower"}, opSave},
	{metricDef{spanParse, "ms", "lower"}, opRestore},
	{metricDef{"core.compress_ms", "ms", "lower"}, opSave},
	{metricDef{"core.decompress_ms", "ms", "lower"}, opRestore},
	{metricDef{"core.self_ms", "ms", "lower"}, opSave},
	{metricDef{"core.decompress_self_ms", "ms", "lower"}, opRestore},
	{metricDef{spanEntComp, "ms", "lower"}, opSave},
	{metricDef{spanEntDecomp, "ms", "lower"}, opRestore},
	{metricDef{spanShuffle, "ms", "lower"}, opSave},
	{metricDef{spanUnshuffle, "ms", "lower"}, opRestore},
	{metricDef{"entropy.in_mb", "MB", "lower"}, opSave},
	{metricDef{"entropy.out_mb", "MB", "lower"}, opSave},
	{metricDef{"store.commit_ms", "ms", "lower"}, opSave},
	{metricDef{"store.commit_self_ms", "ms", "lower"}, opSave},
	{metricDef{"store.read_ms", "ms", "lower"}, opRestore},
	{metricDef{"store.read_self_ms", "ms", "lower"}, opRestore},
	{metricDef{"fs.write_ms", "ms", "lower"}, opSave},
	{metricDef{"fs.sync_ms", "ms", "lower"}, opSave},
	{metricDef{"fs.rename_ms", "ms", "lower"}, opSave},
	{metricDef{"fs.syncdir_ms", "ms", "lower"}, opSave},
	{metricDef{"fs.read_ms", "ms", "lower"}, opRestore},
	{metricDef{"fs.syncs_per_save", "count", "lower"}, opSave},
	{metricDef{"fs.creates_per_save", "count", "lower"}, opSave},
	{metricDef{"fs.bytes_per_save", "B", "lower"}, opSave},
	{metricDef{spanChunk, "ms", "lower"}, opSave},
	{metricDef{"cas.chunks_per_save", "count", "lower"}, opSave},
	{metricDef{"cas.new_chunk_frac", "ratio", "lower"}, opSave},
	{metricDef{"trace.save_p50_ms", "ms", "lower"}, opAny},
	{metricDef{"trace.restore_p50_ms", "ms", "lower"}, opAny},
	{metricDef{"trace.overhead_pct", "%", "lower"}, opAny},
	{metricDef{"trace.restore_overhead_pct", "%", "lower"}, opAny},
}

// metrics reduces a timed run to the end-to-end metrics, plus the
// reported-only ones.
func (r *timedResult) metrics() (map[string]float64, dist, dist) {
	s, rs := summarise(r.saveLat), summarise(r.restoreLat)
	gb := float64(r.rawMoved) / 1e9
	return map[string]float64{
		"save_p50_ms":           s.p50,
		"save_tail_ms":          s.tail,
		"restore_p50_ms":        rs.p50,
		"restore_tail_ms":       rs.tail,
		"throughput_mb_s":       float64(r.rawMoved) / 1e6 / r.wall.Seconds(),
		"cpu_s_per_gb":          r.cpu / gb,
		"stored_bytes_per_byte": median(r.storeRatios),
		"peak_rss_mb":           r.peakRSSMB,
		"setup_s":               median(r.setup),
		"max_rel_err_pct":       100 * r.maxRelErr,
		"failed_frac":           float64(r.failed) / math.Max(1, float64(r.attempted)),
	}, s, rs
}
