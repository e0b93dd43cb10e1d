package harness

import (
	"fmt"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/heat"
	"lossyckpt/internal/nbody"
	"lossyckpt/internal/qa"
	"lossyckpt/internal/quant"
)

// QualityAnalytics is experiment X15: Z-checker-style compression
// quality assessment across all three workloads. For each checkpoint
// array it reports the error distribution's key figures (max-abs,
// max-rel, PSNR) at the default operating point, plus the
// rate-distortion extremes of the division sweep — the data behind the
// paper's "acceptable error" argument, measured instead of asserted.
// With cfg.ReportDir set, the full per-workload reports (histograms,
// spectra, autocorrelation, complete RD curves) are written there as
// markdown + JSON.
func QualityAnalytics(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "qa",
		Title: "Quality analytics: error distributions and rate-distortion across workloads",
		Header: []string{"workload", "var", "max-abs", "max-rel", "PSNR [dB]",
			"bits/val @min-div", "bits/val @max-div"},
	}
	for _, w := range []string{"climate", "heat", "nbody"} {
		rep, err := cfg.qualityReport(w)
		if err != nil {
			return nil, err
		}
		for i, a := range rep.Assessments {
			lo, hi := "", ""
			if i < len(rep.RD) && len(rep.RD[i].Points) > 0 {
				pts := rep.RD[i].Points
				lo = fmt.Sprintf("%.2f", pts[0].BitsPerValue)
				hi = fmt.Sprintf("%.2f", pts[len(pts)-1].BitsPerValue)
			}
			t.AddRow(w, a.Var,
				fmt.Sprintf("%.3g", a.MaxAbs), fmt.Sprintf("%.3g", a.MaxRel),
				fmt.Sprintf("%.2f", a.PSNR), lo, hi)
		}
		if cfg.ReportDir != "" {
			md, _, err := rep.WriteFiles(cfg.ReportDir, w+"-report")
			if err != nil {
				return nil, err
			}
			t.Notes = append(t.Notes, "full report: "+md)
		}
	}
	return t, nil
}

// workloadFields assembles the named checkpoint arrays of one built-in
// workload at harness scale.
func (c Config) workloadFields(workload string) ([]qa.NamedField, error) {
	switch workload {
	case "climate":
		m, err := c.model()
		if err != nil {
			return nil, err
		}
		var out []qa.NamedField
		for _, nf := range m.Fields() {
			out = append(out, qa.NamedField{Name: nf.Name, Field: nf.Field})
		}
		return out, nil
	case "heat":
		s, err := heat.New(heat.DefaultConfig())
		if err != nil {
			return nil, err
		}
		s.StepN(100)
		return []qa.NamedField{{Name: "temperature", Field: s.Temperature()}}, nil
	case "nbody":
		nc := nbody.DefaultConfig()
		nc.Seed = c.Seed
		sys, err := nbody.New(nc)
		if err != nil {
			return nil, err
		}
		sys.StepN(100)
		var out []qa.NamedField
		for _, nf := range sys.Fields() {
			out = append(out, qa.NamedField{Name: nf.Name, Field: nf.Field})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("harness: unknown workload %q", workload)
	}
}

// qualityReport builds the full qa.Report for one workload: assessment
// at the default operating point plus the division RD sweep, per array.
func (c Config) qualityReport(workload string) (*qa.Report, error) {
	fields, err := c.workloadFields(workload)
	if err != nil {
		return nil, err
	}
	base := optionsFor(quant.Proposed, 128, c.TmpDir)
	rep := &qa.Report{
		Title:    "Checkpoint quality report: " + workload,
		Workload: workload,
		Codec:    "lossy (wavelet+quantize)",
		Created:  time.Now().UTC(),
	}
	for _, nf := range fields {
		opts := base
		opts.VarName = nf.Name
		res, err := core.Compress(nf.Field, opts)
		if err != nil {
			return nil, err
		}
		dec, err := core.Decompress(res.Data, 0)
		if err != nil {
			return nil, err
		}
		a, err := qa.Assess(nf.Name, nf.Field.Data(), dec.Data(), qa.Options{})
		if err != nil {
			return nil, err
		}
		rd, err := qa.RateDistortion(nf.Field, opts, nil)
		if err != nil {
			return nil, err
		}
		rep.Assessments = append(rep.Assessments, a)
		rep.RD = append(rep.RD, qa.VarRD{Var: nf.Name, Points: rd})
	}
	return rep, nil
}

// attachQualityReport writes one workload's full quality report into
// cfg.ReportDir (when set) and records its path on the table — how the
// guard-overhead and entropy-stage experiments carry their quality
// evidence alongside the timing numbers.
func attachQualityReport(cfg Config, t *Table, workload, base string) {
	if cfg.ReportDir == "" {
		return
	}
	rep, err := cfg.qualityReport(workload)
	if err != nil {
		t.Notes = append(t.Notes, "quality report failed: "+err.Error())
		return
	}
	md, _, err := rep.WriteFiles(cfg.ReportDir, base)
	if err != nil {
		t.Notes = append(t.Notes, "quality report failed: "+err.Error())
		return
	}
	t.Notes = append(t.Notes, "quality report: "+md)
}
