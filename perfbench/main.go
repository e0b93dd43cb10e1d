// Command perfbench is the end-to-end benchmark of the checkpoint
// service. A timed run drives the lossyckptd binary over loopback HTTP
// with one closed-loop client per tenant, the clients taking turns, and
// reports what a user of the daemon sees; a traced run drives an
// in-process daemon with the same traffic and replays every operation
// through the layers' public functions to report where the time goes.
// See README.md.
//
// Usage (run.sh builds both binaries and adds -daemon and -workdir):
//
//	perfbench -daemon bin/lossyckptd -workdir dir --workload nicam-lossy --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (nicam-lossy, bulk-lz4, sparse-dedup)")
		seed    = flag.Int64("seed", 1, "input seed")
		secs    = flag.Float64("seconds", 30, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0 = timed run of the daemon binary, 1 = traced in-process run")
		daemon  = flag.String("daemon", "", "lossyckptd binary (timed runs)")
		workdir = flag.String("workdir", "", "directory for store directories and daemon files")
	)
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*secs*float64(time.Second)), *trace != 0, *daemon, *workdir)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			err = errors.Join(err, jerr)
		} else {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run generates the workload's inputs, runs it, and prints each metric
// by name with its unit. It returns the result line, which is nil when
// the run could not measure anything; a failed correctness gate returns
// both a result with Correct false and the error.
func run(name string, seed int64, d time.Duration, traced bool, daemon, workdir string) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if workdir == "" || (!traced && daemon == "") {
		return nil, errors.New("-workdir and, for a timed run, -daemon are required")
	}
	srcs, err := w.inputs(seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer removeAll(dir)
	fmt.Printf("workload %s  seed %d  %s\n", w.name, seed, host(dir))

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var (
		t       totals
		values  map[string]float64
		defs    []metricDef
		extra   []string
		runErr  error
		printed []metricDef
	)
	if traced {
		var tr *traceResult
		tr, runErr = runTraced(w, srcs, dir, d)
		if tr != nil {
			t = tr.traced
			values = tr.layerMetrics()
			for _, m := range perLayer {
				defs = append(defs, m.metricDef)
			}
			printed = defs
			extra = []string{"largest self-time share of a save:    " + tr.topSave,
				"largest self-time share of a restore: " + tr.topRestore}
		}
	} else {
		// The load generator shares both CPUs with the daemon. Collecting
		// its garbage less often keeps it from perturbing the daemon's
		// latencies; the limit bounds its heap.
		debug.SetGCPercent(400)
		debug.SetMemoryLimit(768 << 20)
		var tr *timedResult
		tr, runErr = runTimed(w, srcs, daemon, dir, d)
		if tr != nil {
			t = tr.totals
			var s, rs dist
			values, s, rs = tr.metrics()
			defs = endToEnd
			printed = append(append([]metricDef(nil), endToEnd...), endToEndReported...)
			extra = []string{
				fmt.Sprintf("save tail at p%.1f of %d saves; restore tail at p%.1f of %d restores", s.tailPct, s.n, rs.tailPct, rs.n),
				fmt.Sprintf("setup runs (s): %v", tr.setup),
			}
		}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	if runErr != nil {
		if errors.Is(runErr, errGate) {
			res.Correct = false
			return res, runErr
		}
		return nil, runErr
	}
	for _, m := range printed {
		fmt.Printf("%-28s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	for _, line := range extra {
		fmt.Println(line)
	}
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// host describes the machine a run measures: CPUs, Go, and the
// filesystem that holds the store directories.
func host(dir string) string {
	model := "unknown CPU"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fsType := "unknown fs"
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		fsType = fsName(int64(st.Type))
	}
	return fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  %s  store fs %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), fsType)
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// removeAll deletes a run's directory tree.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
