package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"

	"pmcpower/pmcbench/oracle"
)

const (
	extendedCount = 10  // E11 extends Algorithm 1 to ten counters
	bootstrapReps = 200 // E16
)

// strategyMetric names each selection strategy in the per-layer metrics.
var strategyMetric = map[core.Strategy]string{
	core.StrategyGreedyR2: "greedy",
	core.StrategyBackward: "backward",
	core.StrategyPCC:      "pcc",
	core.StrategyAIC:      "aic",
	core.StrategyLasso:    "lasso",
}

// searchResult is the output of one model-search pass.
type searchResult struct {
	steps     []core.SelectionStep // Algorithm 1 to ten counters (E11)
	cmps      []core.StrategyComparison
	scenarios [4]*core.ScenarioResult // E5
	boot      *core.BootstrapResult   // E16
	trans     []core.TransformCandidate
}

// six is the canonical selection: the first six greedy steps.
func (r *searchResult) six() []pmu.EventID { return core.Events(r.steps[:numEvents]) }

// searchPass runs the fitting experiments once on the all-counter,
// all-DVFS-state dataset: E11, E14, E5, E16 and E15.
func searchPass(b *bench, full *acquisition.Dataset, par int, parent *span) (*searchResult, error) {
	sel := full.AtFrequency(selFreqMHz)
	var r searchResult
	step := func(name string, fn func() error) error {
		sp := b.tr.start(name, parent, 0)
		err := fn()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var err error
	if err := step("core.select", func() error {
		r.steps, err = core.SelectEventsCtx(context.Background(), sel.Rows,
			core.SelectOptions{Count: extendedCount, Parallelism: par})
		return err
	}); err != nil {
		return nil, err
	}
	six := r.six()
	if err := step("core.strategies", func() error {
		for _, s := range core.AllStrategies() {
			sp := b.tr.start("core.strategy."+strategyMetric[s], parent, 0)
			cmp, err := scoreStrategy(b, sp, sel.Rows, full.Rows, s, par)
			sp.end()
			if err != nil {
				return fmt.Errorf("strategy %v: %w", s, err)
			}
			r.cmps = append(r.cmps, cmp)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := step("core.scenarios", func() error {
		var err error
		if r.scenarios[0], err = core.Scenario1(full, six, b.seed+34); err != nil {
			return err
		}
		if r.scenarios[1], err = core.Scenario2(full, six); err != nil {
			return err
		}
		if r.scenarios[2], err = core.Scenario3(full, six, b.seed+7); err != nil {
			return err
		}
		r.scenarios[3], err = core.Scenario4(full, six, b.seed+7)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("core.bootstrap", func() error {
		r.boot, err = core.Bootstrap(full.Rows, six, bootstrapReps, b.seed+5)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("core.transform", func() error {
		r.trans, err = core.TransformationSearch(sel.Rows, six)
		return err
	}); err != nil {
		return nil, err
	}
	return &r, nil
}

// runSearch times model-search passes. Its set-up is the acquisition
// of the dataset.
func runSearch(b *bench) error {
	var full *acquisition.Dataset
	if err := b.setup(1, func() (func(), error) {
		var err error
		full, err = acquisition.AcquireCtx(context.Background(), acquisition.Options{Seed: b.seed, Parallelism: b.par},
			workloads.Active(), cpusim.HaswellEP().Frequencies())
		return nil, err
	}); err != nil {
		return err
	}
	if b.child {
		_, err := searchPass(b, full, b.par, nil)
		return err
	}
	if !b.traced {
		if err := b.childRuns(); err != nil {
			return err
		}
	}

	p := b.phase("search")
	var ops opTimes
	var ref *searchResult
	end := b.deadline(time.Now(), 1)
	for len(ops.wall) < 3 || time.Now().Before(end) {
		p.attempted++
		sp := b.tr.start("search", nil, 0)
		var r *searchResult
		err := ops.time(func() (err error) {
			r, err = searchPass(b, full, b.par, sp)
			return err
		})
		sp.end()
		if err != nil {
			p.failed++
			return fmt.Errorf("pass %d: %w", p.attempted, err)
		}
		if ref == nil {
			ref = r
			checkSearch(b, full, r)
		} else if err := sameSearch(ref, r); err != nil {
			b.fail("pass %d differs from the first: %v", p.attempted, err)
		}
	}
	ops.report(b)
	b.note("%d rows, %d at %d MHz", len(full.Rows), len(full.AtFrequency(selFreqMHz).Rows), selFreqMHz)
	if b.traced {
		b.note("traced pass median %.4f s (compare with an untraced run for the tracing overhead)", median(ops.wall))
		return searchLayers(b, full, ref, median(ops.wall))
	}
	return nil
}

// checkSearch checks one pass against properties the method must have
// and the bootstrap's full-sample fit against the oracle.
func checkSearch(b *bench, full *acquisition.Dataset, r *searchResult) {
	for i := 1; i < len(r.steps); i++ {
		if !(r.steps[i].R2 >= r.steps[i-1].R2) {
			b.fail("R² falls from %.6f to %.6f at Algorithm-1 step %d", r.steps[i-1].R2, r.steps[i].R2, i+1)
		}
	}
	sets := map[core.Strategy]string{}
	for _, c := range r.cmps {
		ids := pmu.SortIDs(append([]pmu.EventID(nil), c.Events...))
		sets[c.Strategy] = strings.Join(pmu.ShortNames(ids), ",")
	}
	if sets[core.StrategyGreedyR2] != sets[core.StrategyAIC] {
		b.fail("greedy R² chose {%s} but greedy AIC chose {%s}", sets[core.StrategyGreedyR2], sets[core.StrategyAIC])
	}
	s2, s3, s4 := r.scenarios[1].MAPE, r.scenarios[2].MAPE, r.scenarios[3].MAPE
	if !(s2 > s3 && s2 > s4) {
		b.fail("scenario 2 MAPE %.3f%% is not the worst of scenarios 2–4 (%.3f%%, %.3f%%)", s2, s3, s4)
	}
	// Scenario 4 beats scenario 2 on every seed, but its lead over
	// scenario 3 is a few hundredths of a point and flips on some
	// campaign seeds, so that order is reported, not checked.
	if !(s4 < s2) {
		b.fail("scenario 4 MAPE %.3f%% is not better than scenario 2's %.3f%%", s4, s2)
	}
	if s4 >= s3 {
		b.note("scenario 4 MAPE %.3f%% is not below scenario 3's %.3f%% on this seed", s4, s3)
	}
	// Bootstrap point estimates are the full-sample Equation-1 fit.
	six := r.six()
	events := eventNames(six)
	x := make([][]float64, len(full.Rows))
	y := make([]float64, len(full.Rows))
	for i, row := range full.Rows {
		x[i] = oracle.DesignRow(events, rowSample(row))
		y[i] = row.PowerW
	}
	want, err := oracle.LeastSquares(x, y)
	if err != nil {
		b.fail("oracle least squares: %v", err)
		return
	}
	// Bootstrap orders coefficients delta, gamma, beta, then the events.
	byName := map[string]float64{}
	for _, c := range r.boot.Coefficients {
		byName[c.Name] = c.Point
	}
	got := []float64{byName["delta"]}
	for _, id := range six {
		got = append(got, byName[pmu.Lookup(id).Short])
	}
	got = append(got, byName["beta"], byName["gamma"])
	if err := oracle.CheckCoeffs(got, want, oracle.CoeffTol); err != nil {
		b.fail("bootstrap point estimates vs oracle: %v", err)
	}
	b.note("Algorithm 1 to %d counters: R² %.4f → %.4f; scenarios 1–4 MAPE %.2f%% %.2f%% %.2f%% %.2f%%; strategies: %s",
		extendedCount, r.steps[0].R2, r.steps[len(r.steps)-1].R2,
		r.scenarios[0].MAPE, s2, s3, s4, strategySummary(r.cmps))
}

func strategySummary(cmps []core.StrategyComparison) string {
	var parts []string
	for _, c := range cmps {
		parts = append(parts, fmt.Sprintf("%s CV %.2f%%", strategyMetric[c.Strategy], c.CVMAPE))
	}
	return strings.Join(parts, ", ")
}

// sameSearch reports the first difference between two passes; they
// must be bit-identical.
func sameSearch(a, c *searchResult) error {
	if len(a.steps) != len(c.steps) {
		return fmt.Errorf("selection length differs")
	}
	for i := range a.steps {
		s, t := a.steps[i], c.steps[i]
		if s.Event != t.Event || s.R2 != t.R2 || !sameFloat(s.MeanVIF, t.MeanVIF) {
			return fmt.Errorf("selection step %d differs", i+1)
		}
	}
	if err := sameComparisons(a.cmps, c.cmps); err != nil {
		return err
	}
	for i := range a.scenarios {
		if a.scenarios[i].MAPE != c.scenarios[i].MAPE {
			return fmt.Errorf("scenario %d MAPE differs", i+1)
		}
	}
	for i := range a.boot.Coefficients {
		if a.boot.Coefficients[i] != c.boot.Coefficients[i] {
			return fmt.Errorf("bootstrap coefficient %s differs", a.boot.Coefficients[i].Name)
		}
	}
	if len(a.trans) != len(c.trans) {
		return fmt.Errorf("transformation candidates differ")
	}
	for i := range a.trans {
		if !sameFloat(a.trans[i].MeanVIFAfter, c.trans[i].MeanVIFAfter) || !sameFloat(a.trans[i].R2After, c.trans[i].R2After) {
			return fmt.Errorf("transformation candidate %d differs", i)
		}
	}
	return nil
}

func sameComparisons(a, c []core.StrategyComparison) error {
	if len(a) != len(c) {
		return fmt.Errorf("%d strategies, want %d", len(c), len(a))
	}
	for i := range a {
		s, t := a[i], c[i]
		if s.Strategy != t.Strategy || fmt.Sprint(s.Events) != fmt.Sprint(t.Events) || s.R2 != t.R2 ||
			!sameFloat(s.MeanVIF, t.MeanVIF) || s.CVMAPE != t.CVMAPE || s.TransferMAPE != t.TransferMAPE {
			return fmt.Errorf("strategy %v differs", s.Strategy)
		}
	}
	return nil
}

// searchLayers is the traced run's layer breakdown: the medians of the
// spans the timed passes recorded around each public call, one HC3 fit
// timed alone, and a serial pass for the parallel speed-up.
func searchLayers(b *bench, full *acquisition.Dataset, ref *searchResult, parallelPass float64) error {
	for _, name := range []string{"core.select", "core.scenarios", "core.bootstrap", "core.transform", "core.cv", "stats.vif"} {
		b.set(name+"_s", median(b.tr.durations(name)))
	}
	var names []string
	for _, s := range core.AllStrategies() {
		d := median(b.tr.durations("core.strategy." + strategyMetric[s]))
		b.set("core.strategy."+strategyMetric[s]+"_s", d)
		names = append(names, fmt.Sprintf("%s %.4f s", strategyMetric[s], d))
	}

	x, y, err := core.DesignMatrix(full.Rows, ref.six())
	if err != nil {
		return err
	}
	var fits []float64
	for i := 0; i < 50; i++ {
		sp := b.tr.start("stats.ols_hc3", nil, 0)
		_, err := stats.FitOLS(x, y, stats.OLSOptions{Intercept: true, Estimator: stats.CovHC3})
		fits = append(fits, sp.end().Seconds()*1e6)
		if err != nil {
			return err
		}
	}
	b.set("stats.ols_hc3_us", median(fits))

	sp := b.tr.start("search.serial", nil, 0)
	serial, err := searchPass(b, full, 1, sp)
	serialT := sp.end().Seconds()
	if err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	if err := sameSearch(ref, serial); err != nil {
		b.fail("serial pass differs from the parallel ones: %v", err)
	}
	b.set("parallel.speedup", serialT/parallelPass)
	b.note("strategies: %s; serial pass %.3f s vs parallel %.3f s", strings.Join(names, ", "), serialT, parallelPass)
	return nil
}

// scoreStrategy selects six counters with one strategy and scores the
// set as core.CompareStrategiesP does — refit on the selection rows,
// mean VIF, 10-fold CV on all rows — but without the synthetic→SPEC
// transfer fit, which fails on some campaign seeds.
func scoreStrategy(b *bench, parent *span, selRows, evalRows []*acquisition.Row, s core.Strategy, par int) (core.StrategyComparison, error) {
	cmp := core.StrategyComparison{Strategy: s}
	var err error
	sp := b.tr.start("core.strategy.select", parent, 0)
	cmp.Events, err = core.SelectWithStrategyOpts(selRows, s, core.StrategyOptions{Count: numEvents, Parallelism: par})
	sp.end()
	if err != nil {
		return cmp, err
	}
	sp = b.tr.start("core.train", parent, 0)
	m, err := core.Train(selRows, cmp.Events, core.TrainOptions{})
	sp.end()
	if err != nil {
		return cmp, err
	}
	cmp.R2 = m.R2()
	sp = b.tr.start("stats.vif", parent, 0)
	cmp.MeanVIF, err = stats.MeanVIFP(core.RateMatrix(selRows, cmp.Events), par)
	sp.end()
	if err != nil {
		cmp.MeanVIF = math.Inf(1)
	}
	sp = b.tr.start("core.cv", parent, 0)
	cv, err := core.CrossValidateP(evalRows, cmp.Events, cvFolds, b.seed+7, par)
	sp.end()
	if err != nil {
		return cmp, err
	}
	cmp.CVMAPE = cv.MAPESummary().Mean
	return cmp, nil
}
