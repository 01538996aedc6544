// Command pmcbench is the pmcpower benchmark. It runs one named
// workload on the simulated Haswell-EP platform, times it from outside
// through the program's public functions and pmcpowerd's HTTP API,
// checks every output against the independent oracle (package oracle)
// or against properties the method must have, and prints one JSON
// result as the last line of standard output.
//
// Usage (from the root of a pmcpower checkout; run.sh builds the
// benchmark and pmcpowerd first):
//
//	pmcbench -workload calibrate|model-search|serve -seed n -seconds s -trace 0|1 \
//	         [-daemon path/to/pmcpowerd] [-out dir]
//
// With -trace 0 the result carries the workload's end-to-end metrics;
// with -trace 1 it carries the per-layer metrics, and the spans the
// benchmark recorded around each layer call are written to -out as a
// Chrome trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload: its run function and the
// per-layer metrics its operations enter.
//
// Every workload reports every metric of BENCHMARK.json, each in the
// workload's own terms: an operation is one calibration (calibrate),
// one search pass (model-search) or one estimated sample (serve). A
// traced run reports 0 for a layer the workload's operations never
// enter.
type workload struct {
	run    func(b *bench) error
	layers []string
}

var benchWorkloads = map[string]workload{
	"calibrate": {
		run: runCalibrate,
		layers: []string{
			"acquisition.campaign_s", "pmu.runs_per_cell", "trace.archive_mb",
			"cpusim.execute_s", "power.node_power_s", "metricplugin.sample_s",
			"trace.decode_s", "phaseprofile.extract_s", "acquisition.unattributed_s",
			"core.select_s", "core.train_s", "core.cv_s", "parallel.speedup",
		},
	},
	"model-search": {
		run: runSearch,
		layers: []string{
			"core.select_s",
			"core.strategy.greedy_s", "core.strategy.backward_s", "core.strategy.pcc_s",
			"core.strategy.aic_s", "core.strategy.lasso_s",
			"core.cv_s", "core.scenarios_s", "core.bootstrap_s", "core.transform_s",
			"stats.vif_s", "stats.ols_hc3_us", "parallel.speedup",
		},
	},
	"serve": {
		run: runServe,
		layers: []string{
			"serve.http_us_per_sample.null", "serve.http_us_per_sample.omitted",
			"serve.http_us_per_sample.labelled", "serve.http_us_per_sample.refit",
			"serve.engine_us_per_sample", "core.push_ns", "core.push_refit_ns",
			"quality.observe_ns", "serve.unattributed_us_per_sample",
			"serve.predict_us_per_row", "core.predict_ns",
			"serve.requests.bulk", "serve.requests.predict", "serve.requests.interactive",
			"serve.rejected.bulk", "serve.refits.bulk",
			"serve.sessions_created.bulk", "serve.sessions_created.interactive",
		},
	},
}

// setupReps is how many set-ups each run times; setup_s is the median.
// serve repeats its set-up in-process; the offline workloads set up once
// in-process and take setup_s from their child processes (see
// childRuns).
const setupReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phase counts the operations of one stage of a run.
type phase struct {
	name              string
	attempted, failed int64
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	par      int // worker parallelism handed to the program
	daemon   string
	outDir   string

	tr      *tracer // nil in untraced runs
	values  map[string]float64
	phases  []*phase
	errs    []string // failed correctness checks
	notes   []string // reference figures, printed but not gated
	started time.Time

	// child makes an offline workload set up, run one operation and
	// print its set-up time and peak RSS (see childRuns).
	child bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: calibrate, model-search or serve")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured duration of the run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a Chrome trace")
	daemon := fs.String("daemon", "", "pmcpowerd binary built from the tree (serve)")
	outDir := fs.String("out", ".bench_build/pmcbench", "directory for run artifacts (traces, daemon scratch)")
	child := fs.Bool("child", false, "calibrate, model-search: set up, run one operation, print the set-up seconds and peak RSS KiB, and exit (the benchmark runs itself this way for setup_s and max_rss_mb)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := benchWorkloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "pmcbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	// The run checks its metric names against the definition in the
	// checkout root, where it runs.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "pmcbench:", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "pmcbench:", err)
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		par:      runtime.NumCPU(),
		daemon:   *daemon,
		outDir:   *outDir,
		values:   map[string]float64{},
		started:  time.Now(),

		child: *child,
	}
	if b.traced {
		b.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", b.workload, b.seed, b.started.UnixNano()))
	}
	if !b.child {
		b.printMachine(stdout)
	}

	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "pmcbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.child {
		hwm, err := vmHWM("self")
		if err != nil {
			fmt.Fprintln(stderr, "pmcbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, b.values["setup_s"], hwm)
		return 0
	}
	if b.traced {
		path := fmt.Sprintf("%s/%s-seed%d.trace.json", b.outDir, b.workload, b.seed)
		if err := b.tr.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "pmcbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans in %s (run id %s)\n", b.tr.len(), path, b.tr.runID)
	}

	declared := spec.EndToEnd
	if b.traced {
		declared = spec.PerLayer
		for _, m := range declared.names {
			if _, set := b.values[m]; !set && !w.enters(m) {
				b.set(m, 0)
			}
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, m := range declared.names {
		v, ok := b.values[m]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s was not measured (%v)", m, v)
			continue
		}
		res.Metrics[m] = metricValue{Value: v, Unit: declared.units[m]}
	}
	if err := spec.check(b.values); err != nil {
		b.fail("%v", err)
	}
	for _, p := range b.phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = len(b.errs) == 0
	b.printReport(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pmcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range benchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// enters reports whether the workload's operations enter the layer
// that per-layer metric m measures.
func (w workload) enters(m string) bool {
	for _, l := range w.layers {
		if l == m {
			return true
		}
	}
	return false
}

// metricList is one metric list of BENCHMARK.json, in its order.
type metricList struct {
	names []string
	units map[string]string
}

// spec is the part of BENCHMARK.json the run checks itself against.
type spec struct {
	EndToEnd, PerLayer metricList
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := func(ms []m) metricList {
		l := metricList{units: map[string]string{}}
		for _, e := range ms {
			l.names = append(l.names, e.Name)
			l.units[e.Name] = e.Unit
		}
		return l
	}
	return &spec{EndToEnd: list(doc.EndToEnd), PerLayer: list(doc.PerLayer)}, nil
}

// check fails when a measured metric is not in the benchmark
// definition, when a workload declares a layer the definition does not
// list, or when the definition lists a layer no workload enters (it
// would read 0 everywhere).
func (s *spec) check(measured map[string]float64) error {
	var problems []string
	for m := range measured {
		_, e2e := s.EndToEnd.units[m]
		_, layer := s.PerLayer.units[m]
		if !e2e && !layer {
			problems = append(problems, fmt.Sprintf("%s is not a metric of BENCHMARK.json", m))
		}
	}
	entered := map[string]bool{}
	for name, w := range benchWorkloads {
		for _, m := range w.layers {
			entered[m] = true
			if _, ok := s.PerLayer.units[m]; !ok {
				problems = append(problems, fmt.Sprintf("workload %s enters layer %s, which BENCHMARK.json does not list", name, m))
			}
		}
	}
	for _, m := range s.PerLayer.names {
		if !entered[m] {
			problems = append(problems, fmt.Sprintf("BENCHMARK.json per_layer metric %s is entered by no workload", m))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric names differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// phase returns the named operation counter, creating it on first use.
func (b *bench) phase(name string) *phase {
	for _, p := range b.phases {
		if p.name == name {
			return p
		}
	}
	p := &phase{name: name}
	b.phases = append(b.phases, p)
	return p
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// fail records a failed correctness check; the run reports
// "correct": false.
func (b *bench) fail(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// note records a reference figure for the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// deadline returns when the measured part of the run should end.
func (b *bench) deadline(from time.Time, share float64) time.Time {
	return from.Add(time.Duration(float64(b.seconds) * share))
}

// setup runs fn reps times and records the median wall time as
// setup_s. fn's last invocation's state is kept by the caller; the
// release function of every earlier one is called before the next.
func (b *bench) setup(reps int, fn func() (release func(), err error)) error {
	p := b.phase("setup")
	var times []float64
	for i := 0; i < reps; i++ {
		p.attempted++
		sp := b.tr.start("setup", nil, 0)
		t0 := time.Now()
		release, err := fn()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			p.failed++
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		if i < reps-1 && release != nil {
			release()
		}
	}
	b.set("setup_s", median(times))
	b.note("setup_s runs: %s", fmtSeconds(times))
	return nil
}

func (b *bench) printMachine(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "pmcbench: workload=%s seed=%d seconds=%g %s\n", b.workload, b.seed, b.seconds.Seconds(), mode)
	fmt.Fprintf(w, "machine: cpus=%d gomaxprocs=%d parallelism=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), b.par, runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func (b *bench) printReport(w io.Writer, res result) {
	for _, n := range b.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range b.phases {
		fmt.Fprintf(w, "phase %-12s attempted=%d failed=%d\n", p.name, p.attempted, p.failed)
	}
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, e := range b.errs {
		fmt.Fprintln(w, "CHECK FAILED:", e)
	}
	fmt.Fprintf(w, "wall time %.1f s\n", time.Since(b.started).Seconds())
}

// childRuns gives the offline workloads their setup_s and max_rss_mb.
// It runs setupReps fresh copies of this program one after another,
// each with -child to set up, run one operation and print its set-up
// time and its own VmHWM. setup_s is the median set-up time and
// max_rss_mb the lowest peak. The peak of a process that repeats the
// operation for the whole run is the extreme of a series of
// garbage-collector cycles (26–40 MiB across seeds for calibrate); that
// of one fresh operation varies much less, and the lowest of three is
// the workflow's own requirement. The child reports the figure itself
// because its rusage peak is not its own: os/exec starts it with vfork,
// and Linux carries the peak of the address space the child leaves at
// exec — this process's — into it.
func (b *bench) childRuns() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	p := b.phase("setup")
	var setups, rss []float64
	for i := 0; i < setupReps; i++ {
		p.attempted++
		cmd := exec.Command(exe, "-workload", b.workload, "-seed", strconv.FormatUint(b.seed, 10),
			"-seconds", strconv.FormatFloat(b.seconds.Seconds(), 'g', -1, 64), "-out", b.outDir, "-child")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var setup float64
		var kib int64
		if err == nil {
			_, err = fmt.Sscan(string(out), &setup, &kib)
		}
		if err != nil {
			p.failed++
			return fmt.Errorf("%s process %d: %w", b.workload, i+1, err)
		}
		setups = append(setups, setup)
		rss = append(rss, float64(kib)/1024)
	}
	b.set("setup_s", median(setups))
	b.set("max_rss_mb", quantile(rss, 0))
	b.note("set-up s of the one-operation processes: %s; their peak RSS MiB: %s", fmtSeconds(setups), fmtSeconds(rss))
	return nil
}

// processCPU is the user+sys CPU time this process has used so far,
// all threads together. Time the hypervisor gives another guest is not
// in it, so on a shared machine it drifts less than wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opTimes collects the wall and CPU time of each operation of an
// offline workload's timed loop.
type opTimes struct {
	wall, cpu []float64 // seconds
	elapsed   time.Duration
}

// time runs op once and records its wall and CPU time.
func (t *opTimes) time(op func() error) error {
	c0, t0 := processCPU(), time.Now()
	err := op()
	d := time.Since(t0)
	t.elapsed += d
	t.wall = append(t.wall, d.Seconds())
	t.cpu = append(t.cpu, (processCPU() - c0).Seconds())
	return err
}

// report sets the end-to-end metrics of an offline workload, whose
// operation is one calibration or search pass.
func (t *opTimes) report(b *bench) {
	b.set("cpu_us_per_op", median(t.cpu)*1e6)
	b.note("%d operations (%.3f/s), wall median %.4f s p90 %.4f s, CPU median %.4f s; wall: %s", len(t.wall),
		float64(len(t.wall))/t.elapsed.Seconds(), median(t.wall), quantile(t.wall, 0.9), median(t.cpu), fmtSeconds(t.wall))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
