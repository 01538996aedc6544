package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/metricplugin"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/rng"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"

	"pmcpower/pmcbench/oracle"
)

// The paper's workflow parameters, as cmd/powermodel runs them.
const (
	selFreqMHz = 2400
	numEvents  = 6
	cvFolds    = 10
)

// calibration is the output of one run of the paper's workflow.
type calibration struct {
	sel, full *acquisition.Dataset
	steps     []core.SelectionStep
	events    []pmu.EventID
	model     *core.Model
	cv        *core.CVResult
	// wall time of each stage
	selAcq, selectT, fullAcq, trainT, cvT time.Duration
}

func (c *calibration) campaign() time.Duration { return c.selAcq + c.fullAcq }

// acquisitionEvents is the DVFS campaign's counter list: the selected
// events plus TOT_CYC, which the rate normalization needs.
func acquisitionEvents(events []pmu.EventID) []pmu.EventID {
	cyc := pmu.MustByName("TOT_CYC").ID
	for _, id := range events {
		if id == cyc {
			return events
		}
	}
	return append(append([]pmu.EventID(nil), events...), cyc)
}

// calibrateOnce runs the paper's workflow exactly as cmd/powermodel
// does: acquire all presets at 2400 MHz, Algorithm 1 to six counters,
// acquire those plus TOT_CYC at every DVFS state, fit Equation 1 with
// HC3, and 10-fold CV. sink, when non-nil, receives every trace archive.
func calibrateOnce(b *bench, seed uint64, par int, parent *span, sink func(string, []byte)) (*calibration, error) {
	ctx := context.Background()
	active := workloads.Active()
	var c calibration
	var err error
	stage := func(name string, d *time.Duration, fn func() error) error {
		sp := b.tr.start(name, parent, 0)
		t0 := time.Now()
		err := fn()
		*d = time.Since(t0)
		sp.end()
		return err
	}
	if err = stage("acquisition.selection", &c.selAcq, func() error {
		c.sel, err = acquisition.AcquireCtx(ctx, acquisition.Options{Seed: seed, Parallelism: par, TraceSink: sink},
			active, []int{selFreqMHz})
		return err
	}); err != nil {
		return nil, err
	}
	if err = stage("core.select", &c.selectT, func() error {
		c.steps, err = core.SelectEventsCtx(ctx, c.sel.Rows, core.SelectOptions{Count: numEvents, Parallelism: par})
		return err
	}); err != nil {
		return nil, err
	}
	c.events = core.Events(c.steps)
	if err = stage("acquisition.dvfs", &c.fullAcq, func() error {
		c.full, err = acquisition.AcquireCtx(ctx, acquisition.Options{Seed: seed, Events: acquisitionEvents(c.events),
			Parallelism: par, TraceSink: sink}, active, cpusim.HaswellEP().Frequencies())
		return err
	}); err != nil {
		return nil, err
	}
	if err = stage("core.train", &c.trainT, func() error {
		c.model, err = core.TrainCtx(ctx, c.full.Rows, c.events, core.TrainOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	if err = stage("core.cv", &c.cvT, func() error {
		c.cv, err = core.CrossValidateCtx(ctx, c.full.Rows, c.events, cvFolds, seed+7, par)
		return err
	}); err != nil {
		return nil, err
	}
	return &c, nil
}

// runCalibrate times calibrations back to back. Its set-up is one
// calibration: the oracle checks it, and every timed calibration must
// reproduce it bit for bit.
func runCalibrate(b *bench) error {
	var ref *calibration
	if err := b.setup(1, func() (func(), error) {
		var err error
		ref, err = calibrateOnce(b, b.seed, b.par, nil, nil)
		return nil, err
	}); err != nil {
		return err
	}
	if b.child {
		_, err := calibrateOnce(b, b.seed, b.par, nil, nil)
		return err
	}
	checkCalibration(b, ref)
	if !b.traced {
		if err := b.childRuns(); err != nil {
			return err
		}
	}

	p := b.phase("calibrate")
	var ops opTimes
	var st stageTimes
	end := b.deadline(time.Now(), 1)
	for len(ops.wall) < 3 || time.Now().Before(end) {
		p.attempted++
		sp := b.tr.start("calibrate", nil, 0)
		var c *calibration
		err := ops.time(func() (err error) {
			c, err = calibrateOnce(b, b.seed, b.par, sp, nil)
			return err
		})
		sp.end()
		if err != nil {
			p.failed++
			return fmt.Errorf("calibration %d: %w", p.attempted, err)
		}
		st.add(c)
		if err := sameCalibration(ref, c); err != nil {
			b.fail("calibration %d differs from the reference: %v", p.attempted, err)
		}
	}
	ops.report(b)
	b.note("stage split of the reference calibration: selection acquisition %.3f s, Algorithm 1 %.4f s, DVFS acquisition %.3f s, fit %.4f s, CV %.4f s",
		ref.selAcq.Seconds(), ref.selectT.Seconds(), ref.fullAcq.Seconds(), ref.trainT.Seconds(), ref.cvT.Seconds())
	if b.traced {
		b.note("traced calibration median %.4f s (compare with an untraced run for the tracing overhead)", median(ops.wall))
		return calibrateLayers(b, ref, &st)
	}
	return nil
}

// stageTimes collects the stage wall times of the timed calibrations,
// in seconds.
type stageTimes struct {
	campaign, selectT, trainT, cvT []float64
}

func (s *stageTimes) add(c *calibration) {
	s.campaign = append(s.campaign, c.campaign().Seconds())
	s.selectT = append(s.selectT, c.selectT.Seconds())
	s.trainT = append(s.trainT, c.trainT.Seconds())
	s.cvT = append(s.cvT, c.cvT.Seconds())
}

// checkCalibration checks the reference calibration against the oracle
// and against the properties DESIGN.md §4 states for the method.
func checkCalibration(b *bench, c *calibration) {
	events := eventNames(c.events)
	x := make([][]float64, len(c.full.Rows))
	y := make([]float64, len(c.full.Rows))
	for i, r := range c.full.Rows {
		x[i] = oracle.DesignRow(events, rowSample(r))
		y[i] = r.PowerW
	}
	want, err := oracle.LeastSquares(x, y)
	if err != nil {
		b.fail("oracle least squares: %v", err)
	} else if err := oracle.CheckCoeffs(modelCoeffs(c.model), want, oracle.CoeffTol); err != nil {
		b.fail("Equation-1 coefficients vs oracle: %v", err)
	}

	// Every row predicted exactly once, out of fold, and the MAPE
	// recomputed from those predictions.
	index := map[*acquisition.Row]int{}
	for i, r := range c.full.Rows {
		index[r] = i
	}
	seen := make([]bool, len(c.full.Rows))
	actual := make([]float64, len(c.cv.Predictions))
	pred := make([]float64, len(c.cv.Predictions))
	for i, p := range c.cv.Predictions {
		j, ok := index[p.Row]
		switch {
		case !ok:
			b.fail("CV predicted a row outside the dataset")
		case seen[j]:
			b.fail("CV predicted row %d twice", j)
		case p.Actual != p.Row.PowerW:
			b.fail("CV prediction %d carries actual %v, row has %v", i, p.Actual, p.Row.PowerW)
		}
		if ok {
			seen[j] = true
		}
		actual[i], pred[i] = p.Actual, p.Predicted
	}
	if len(c.cv.Predictions) != len(c.full.Rows) {
		b.fail("CV predicted %d rows of %d", len(c.cv.Predictions), len(c.full.Rows))
	}
	folds := make([]float64, len(c.cv.Folds))
	for i, f := range c.cv.Folds {
		folds[i] = f.TestMAPE
	}
	cvMAPE := c.cv.MAPESummary().Mean
	if err := oracle.CheckCV(actual, pred, folds, cvMAPE, 1e-9); err != nil {
		b.fail("CV MAPE vs recomputation: %v", err)
	}
	// Each fold's predictions against the oracle's fit of the other
	// folds' rows.
	pos := 0
	for f, size := range oracle.FoldSizes(len(c.cv.Predictions), len(c.cv.Folds)) {
		test := map[*acquisition.Row]bool{}
		for _, p := range c.cv.Predictions[pos : pos+size] {
			test[p.Row] = true
		}
		var xt [][]float64
		var yt []float64
		for i, r := range c.full.Rows {
			if !test[r] {
				xt = append(xt, x[i])
				yt = append(yt, y[i])
			}
		}
		coef, err := oracle.LeastSquares(xt, yt)
		if err != nil {
			b.fail("oracle fit of fold %d: %v", f, err)
			break
		}
		for _, p := range c.cv.Predictions[pos : pos+size] {
			w := oracle.Dot(x[index[p.Row]], coef)
			if e := oracle.RelErr(p.Predicted, w); !(e <= oracle.CoeffTol) {
				b.fail("fold %d predicts %v for %s, oracle %v", f, p.Predicted, p.Row.Workload, w)
				break
			}
		}
		pos += size
	}

	last := c.steps[len(c.steps)-1]
	if !(last.R2 >= 0.97) {
		b.fail("six-counter R² %.4f below 0.97", last.R2)
	}
	// DESIGN.md §4's "mean VIF < 10" is a shape target met at the
	// canonical seed, not a property of the method: on some campaign
	// seeds Algorithm 1's sixth counter is nearly collinear with the
	// others. It is reported, not checked.
	for i, s := range c.steps[1:] {
		if !(s.MeanVIF < 10) {
			b.note("mean VIF %.2f at selection step %d is not below 10 on this seed", s.MeanVIF, i+2)
		}
	}
	if !(cvMAPE >= 5 && cvMAPE <= 9) {
		b.fail("CV MAPE %.3f%% outside 5–9%%", cvMAPE)
	}
	b.note("reference calibration: %s; six-counter R² %.4f; CV MAPE %.3f%% over %d rows",
		fmt.Sprint(pmu.ShortNames(c.events)), last.R2, cvMAPE, len(c.full.Rows))
}

// sameCalibration reports the first difference between two
// calibrations; they must be bit-identical.
func sameCalibration(a, c *calibration) error {
	if err := sameRows(a.sel.Rows, c.sel.Rows); err != nil {
		return fmt.Errorf("selection dataset: %w", err)
	}
	if err := sameRows(a.full.Rows, c.full.Rows); err != nil {
		return fmt.Errorf("DVFS dataset: %w", err)
	}
	if len(a.steps) != len(c.steps) {
		return fmt.Errorf("%d selection steps, want %d", len(c.steps), len(a.steps))
	}
	for i := range a.steps {
		s, t := a.steps[i], c.steps[i]
		if s.Event != t.Event || s.R2 != t.R2 || s.AdjR2 != t.AdjR2 || !sameFloat(s.MeanVIF, t.MeanVIF) {
			return fmt.Errorf("selection step %d differs", i+1)
		}
	}
	if err := sameFloats(modelCoeffs(a.model), modelCoeffs(c.model)); err != nil {
		return fmt.Errorf("coefficients: %w", err)
	}
	if err := sameFloats(a.model.Fit.StdErr, c.model.Fit.StdErr); err != nil {
		return fmt.Errorf("HC3 standard errors: %w", err)
	}
	if len(a.cv.Predictions) != len(c.cv.Predictions) || len(a.cv.Folds) != len(c.cv.Folds) {
		return fmt.Errorf("CV shape differs")
	}
	for i := range a.cv.Folds {
		if a.cv.Folds[i] != c.cv.Folds[i] {
			return fmt.Errorf("CV fold %d differs", i)
		}
	}
	for i := range a.cv.Predictions {
		if a.cv.Predictions[i].Predicted != c.cv.Predictions[i].Predicted {
			return fmt.Errorf("CV prediction %d differs", i)
		}
	}
	return nil
}

func sameRows(a, c []*acquisition.Row) error {
	if len(a) != len(c) {
		return fmt.Errorf("%d rows, want %d", len(c), len(a))
	}
	for i := range a {
		r, s := a[i], c[i]
		if r.Workload != s.Workload || r.FreqMHz != s.FreqMHz || r.Threads != s.Threads ||
			r.PowerW != s.PowerW || r.VoltageV != s.VoltageV || len(r.Rates) != len(s.Rates) {
			return fmt.Errorf("row %d differs", i)
		}
		for id, v := range r.Rates {
			if s.Rates[id] != v {
				return fmt.Errorf("row %d rate %s differs", i, pmu.Lookup(id).Short)
			}
		}
	}
	return nil
}

func sameFloat(a, c float64) bool { return a == c || (a != a && c != c) }

func sameFloats(a, c []float64) error {
	if len(a) != len(c) {
		return fmt.Errorf("%d values, want %d", len(c), len(a))
	}
	for i := range a {
		if !sameFloat(a[i], c[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, c[i], a[i])
		}
	}
	return nil
}

// modelCoeffs returns a model's coefficients in design order.
func modelCoeffs(m *core.Model) []float64 {
	out := append([]float64{m.Delta}, m.Alpha...)
	return append(out, m.Beta, m.Gamma)
}

func eventNames(ids []pmu.EventID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = pmu.Lookup(id).Name
	}
	return out
}

// rowSample is a dataset row as the oracle sees it.
func rowSample(r *acquisition.Row) oracle.Sample {
	rates := make(map[string]float64, len(r.Rates))
	for id, v := range r.Rates {
		rates[pmu.Lookup(id).Name] = v
	}
	return oracle.Sample{FreqMHz: float64(r.FreqMHz), VoltageV: r.VoltageV, Rates: rates}
}

// calibrateLayers is the traced run's layer ledger. It runs the two
// acquisition campaigns of one calibration serially with a trace sink,
// then repeats the campaigns' work one layer at a time through each
// layer's public entry point, and charges the remainder to
// acquisition.unattributed_s.
func calibrateLayers(b *bench, ref *calibration, st *stageTimes) error {
	var archives []archive
	sink := func(name string, data []byte) { archives = append(archives, archive{name, data}) }
	root := b.tr.start("calibrate.serial", nil, 0)
	serial, err := calibrateOnce(b, b.seed, 1, root, sink)
	root.end()
	if err != nil {
		return fmt.Errorf("serial calibration: %w", err)
	}
	if err := sameCalibration(ref, serial); err != nil {
		b.fail("serial calibration differs from the parallel one: %v", err)
	}
	campaign := serial.campaign().Seconds()
	parallelCampaign := median(st.campaign)
	b.set("acquisition.campaign_s", campaign)
	b.set("parallel.speedup", campaign/parallelCampaign)
	b.set("core.select_s", median(st.selectT))
	b.set("core.train_s", median(st.trainT))
	b.set("core.cv_s", median(st.cvT))

	plan, err := pmu.PlanRuns(pmu.AllIDs())
	if err != nil {
		return err
	}
	b.set("pmu.runs_per_cell", float64(len(plan)))
	var archiveBytes int
	for _, a := range archives {
		archiveBytes += len(a.data)
	}
	b.set("trace.archive_mb", float64(archiveBytes)/(1<<20))

	layers := b.tr.start("layers", nil, 0)
	freqs := cpusim.HaswellEP().Frequencies()
	if err := replayCampaign(b, layers, pmu.AllIDs(), []int{selFreqMHz}); err != nil {
		return err
	}
	if err := replayCampaign(b, layers, acquisitionEvents(serial.events), freqs); err != nil {
		return err
	}
	if err := replayArchives(b, layers, archives); err != nil {
		return err
	}
	layers.end()

	execute := b.tr.sum("cpusim.execute")
	sample := b.tr.sum("metricplugin.sample")
	nodePower := b.tr.sum("power.node_power")
	decode := b.tr.sum("trace.decode")
	extract := b.tr.sum("phaseprofile.extract")
	rest := campaign - execute - sample - extract
	b.set("cpusim.execute_s", execute)
	b.set("metricplugin.sample_s", sample)
	b.set("power.node_power_s", nodePower)
	b.set("trace.decode_s", decode)
	b.set("phaseprofile.extract_s", extract)
	b.set("acquisition.unattributed_s", rest)
	b.note("ledger: campaign %.4f s = execute %.4f + sample %.4f (node power %.4f inside) + extract %.4f (decode %.4f inside) + unattributed %.4f",
		campaign, execute, sample, nodePower, extract, decode, rest)
	if rest < 0 {
		b.fail("calibrate reconciliation: layers sum to %.4f s, more than the %.4f s campaign", campaign-rest, campaign)
	}
	if nodePower > sample || decode > extract {
		b.fail("calibrate reconciliation: a nested layer exceeds its parent (node power %.4f/sample %.4f, decode %.4f/extract %.4f)",
			nodePower, sample, decode, extract)
	}
	b.note("campaign serial %.3f s, parallel (median) %.3f s with %d workers; %d archives, %.1f MiB",
		campaign, parallelCampaign, b.par, len(archives), float64(archiveBytes)/(1<<20))
	return nil
}

type archive struct {
	name string
	data []byte
}

// replayCampaign repeats the simulator and metric-plugin work of one
// acquisition campaign: for every (workload, frequency) cell, every
// multiplexed run and every thread step, Executor.ExecutePhases, then
// each phase's activity through the power, voltage and apapi plugins'
// Sample, and the power model's NodePower on the same activity.
func replayCampaign(b *bench, parent *span, events []pmu.EventID, freqs []int) error {
	plat := cpusim.HaswellEP()
	model := power.DefaultModel()
	exec := cpusim.NewExecutor(plat)
	plan, err := pmu.PlanRuns(events)
	if err != nil {
		return err
	}
	base := rng.New(b.seed)
	sensors := make([]*power.Sensor, plat.Sockets)
	for i := range sensors {
		sensors[i] = power.NewSensor(base.Split(uint64(1000 + i)))
	}
	powerPl, err := metricplugin.NewPowerPlugin(model, sensors, 20)
	if err != nil {
		return err
	}
	voltPl, err := metricplugin.NewVoltagePlugin(20)
	if err != nil {
		return err
	}
	apapis := make([]metricplugin.Plugin, len(plan))
	for i, set := range plan {
		if apapis[i], err = metricplugin.NewApapiPlugin(set, 20); err != nil {
			return err
		}
	}
	cores := plat.TotalCores()
	for _, w := range workloads.Active() {
		if w.Excluded {
			continue
		}
		var sweep []int
		seen := map[int]bool{}
		for _, n := range w.ThreadSweep {
			n = min(n, cores)
			if !seen[n] {
				seen[n] = true
				sweep = append(sweep, n)
			}
		}
		for _, f := range freqs {
			cell := b.tr.start("campaign.cell", parent, 0)
			for ri := range plan {
				for _, n := range sweep {
					rnd := base.Split(rng.HashString(fmt.Sprintf("%s|%d|%d|%d", w.Name, f, ri, n)))
					sp := b.tr.start("cpusim.execute", cell, 0)
					acts, err := exec.ExecutePhases(w, f, n, float64(len(w.Phases)), rnd)
					sp.end()
					if err != nil {
						return err
					}
					for _, act := range acts {
						iv := &metricplugin.Interval{StartNs: 0, EndNs: 1e9, Activity: act, Platform: plat, Rand: rnd}
						sp := b.tr.start("metricplugin.sample", cell, 0)
						for _, pl := range []metricplugin.Plugin{powerPl, voltPl, apapis[ri]} {
							if _, err := pl.Sample(iv); err != nil {
								return err
							}
						}
						sp.end()
						sp = b.tr.start("power.node_power", cell, 0)
						_, err := model.NodePower(plat, act)
						sp.end()
						if err != nil {
							return err
						}
					}
				}
			}
			cell.end()
		}
	}
	return nil
}

// replayArchives decodes every captured archive with trace.NewReader +
// ReadAll, then extracts phase profiles from each with FromTrace and
// merges each cell's runs with CombineRuns.
func replayArchives(b *bench, parent *span, archives []archive) error {
	for _, a := range archives {
		sp := b.tr.start("trace.decode", parent, 0)
		r, err := trace.NewReader(bytes.NewReader(a.data))
		if err == nil {
			_, err = r.ReadAll()
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("decoding %s: %w", a.name, err)
		}
	}
	// Archives arrive cell by cell; a cell's runs share the name prefix
	// before "_run".
	var runs [][]*phaseprofile.Phase
	cell := ""
	combine := func() {
		if len(runs) > 0 {
			sp := b.tr.start("phaseprofile.extract", parent, 0)
			phaseprofile.CombineRuns(runs...)
			sp.end()
		}
		runs = runs[:0]
	}
	for _, a := range archives {
		prefix, app := cellOf(a.name)
		if prefix != cell {
			combine()
			cell = prefix
		}
		sp := b.tr.start("phaseprofile.extract", parent, 0)
		phases, err := phaseprofile.FromTrace(bytes.NewReader(a.data), app)
		sp.end()
		if err != nil {
			return fmt.Errorf("extracting %s: %w", a.name, err)
		}
		runs = append(runs, phases)
	}
	combine()
	return nil
}

// cellOf splits an archive name "<workload>_<f>MHz_run<i>.trc" into
// its cell prefix and workload name.
func cellOf(name string) (prefix, app string) {
	i := strings.LastIndex(name, "_run")
	if i < 0 {
		return name, name
	}
	prefix = name[:i]
	j := strings.LastIndexByte(prefix, '_')
	if j < 0 {
		return prefix, prefix
	}
	return prefix, prefix[:j]
}
