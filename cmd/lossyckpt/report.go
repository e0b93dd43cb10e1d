// report.go implements the `lossyckpt report` subcommand: Z-checker
// style quality analytics for the built-in workloads (error
// distributions, PSNR, spectra, rate-distortion curves across
// quantization divisions) and flight-recorder journal summaries (top-N
// slowest operations, escalation and repair counts, codec decisions).
// Both modes render markdown; workload reports also persist JSON when
// -out names a directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/heat"
	"lossyckpt/internal/nbody"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/qa"
)

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	workload := fs.String("workload", "", "quality report for this workload: climate|heat|nbody")
	steps := fs.Int("steps", 40, "simulation steps before assessing")
	divisions := fs.String("divisions", "", "comma-separated quantization divisions for the rate-distortion sweep (default 16..1024)")
	outDir := fs.String("out", "", "write <workload>-report.md/.json into this directory (default: markdown to stdout)")
	jpath := fs.String("journal", "", "summarize this flight-recorder journal (JSONL) instead of / in addition to a workload report")
	top := fs.Int("top", 10, "journal summary: slowest operations to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" && *jpath == "" {
		return errors.New("report: need -workload and/or -journal")
	}
	if *workload != "" {
		if err := workloadReport(*workload, *steps, *divisions, *outDir); err != nil {
			return err
		}
	}
	if *jpath != "" {
		if err := journalReport(*jpath, *top, *outDir); err != nil {
			return err
		}
	}
	return nil
}

// workloadFields steps one of the built-in workloads and returns its
// checkpoint arrays.
func workloadFields(name string, steps int) ([]qa.NamedField, error) {
	switch name {
	case "climate":
		m, err := climate.New(climate.DefaultConfig())
		if err != nil {
			return nil, err
		}
		m.StepN(steps)
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
		s.StepN(steps)
		return []qa.NamedField{{Name: "temperature", Field: s.Temperature()}}, nil
	case "nbody":
		s, err := nbody.New(nbody.DefaultConfig())
		if err != nil {
			return nil, err
		}
		s.StepN(steps)
		var out []qa.NamedField
		for _, nf := range s.Fields() {
			out = append(out, qa.NamedField{Name: nf.Name, Field: nf.Field})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("report: unknown workload %q (want climate|heat|nbody)", name)
	}
}

// workloadReport builds the full quality report for one workload:
// per-variable assessment at the default operating point plus a
// rate-distortion sweep across divisions.
func workloadReport(name string, steps int, divisionsCSV, outDir string) error {
	fields, err := workloadFields(name, steps)
	if err != nil {
		return err
	}
	divs := qa.DefaultDivisions
	if divisionsCSV != "" {
		if divs, err = parseDivisions(divisionsCSV); err != nil {
			return err
		}
	}
	opts := core.DefaultOptions()
	rep := &qa.Report{
		Title:    fmt.Sprintf("Checkpoint quality report: %s", name),
		Workload: name,
		Codec:    "lossy (wavelet+quantize)",
		Created:  time.Now().UTC(),
	}
	rep.AddNote("%d simulation steps before assessment; %d divisions at the default operating point.",
		steps, opts.Divisions)
	for _, nf := range fields {
		a, rd, err := assessField(nf.Name, nf.Field, opts, divs)
		if err != nil {
			return fmt.Errorf("report: %s/%s: %w", name, nf.Name, err)
		}
		rep.Assessments = append(rep.Assessments, a)
		rep.RD = append(rep.RD, qa.VarRD{Var: nf.Name, Points: rd})
	}
	if outDir != "" {
		md, js, err := rep.WriteFiles(outDir, name+"-report")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s and %s\n", md, js)
		return nil
	}
	return rep.WriteMarkdown(os.Stdout)
}

// assessField round-trips one array at the default operating point for
// the error assessment, then sweeps divisions for the RD curve.
func assessField(name string, f *grid.Field, opts core.Options, divs []int) (*qa.Assessment, []qa.RDPoint, error) {
	res, err := core.Compress(f, opts)
	if err != nil {
		return nil, nil, err
	}
	dec, err := core.Decompress(res.Data, 0)
	if err != nil {
		return nil, nil, err
	}
	a, err := qa.Assess(name, f.Data(), dec.Data(), qa.Options{})
	if err != nil {
		return nil, nil, err
	}
	rd, err := qa.RateDistortion(f, opts, divs)
	if err != nil {
		return nil, nil, err
	}
	return a, rd, nil
}

// journalReport renders the markdown summary of one journal (including
// rotated predecessors).
func journalReport(path string, top int, outDir string) error {
	recs, torn, err := journal.ReadAll(path)
	if err != nil {
		return fmt.Errorf("report: reading journal: %w", err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("report: journal %s holds no records", path)
	}
	sum := journal.Summarize(recs, torn, top)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		fpath := outDir + string(os.PathSeparator) + "journal-summary.md"
		out, err := os.Create(fpath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := sum.WriteMarkdown(out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s\n", fpath)
		return nil
	}
	return sum.WriteMarkdown(os.Stdout)
}

// parseDivisions parses "16,64,256" into a division list.
func parseDivisions(csv string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(csv, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("report: bad division %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("report: empty division list")
	}
	return out, nil
}
