package oracle

import (
	"math"
	"math/rand"
	"testing"
)

var testEvents = []string{"PAPI_TOT_CYC", "PAPI_LST_INS", "PAPI_L3_TCM"}

func testModel() *Model {
	return &Model{
		Events: append([]string(nil), testEvents...),
		Alpha:  []float64{0.45, 1.8, 93.4},
		Beta:   -17.9,
		Gamma:  109.3,
		Delta:  -9.5,
	}
}

// testSamples returns n operating points spread over the DVFS range.
func testSamples(n int, r *rand.Rand) []Sample {
	freqs := []float64{1200, 1600, 2000, 2400, 2600}
	out := make([]Sample, n)
	for i := range out {
		f := freqs[r.Intn(len(freqs))]
		out[i] = Sample{
			FreqMHz:  f,
			VoltageV: 0.7 + 0.3*f/2600 + 0.01*r.Float64(),
			Rates: map[string]float64{
				"PAPI_TOT_CYC": f * 1e6 * (1 + 23*r.Float64()),
				"PAPI_LST_INS": f * 1e6 * 10 * r.Float64(),
				"PAPI_L3_TCM":  f * 1e6 * 0.05 * r.Float64(),
			},
		}
	}
	return out
}

// replay runs samples 100 ms apart through a stream of model m.
func replay(m *Model, alpha float64, samples []Sample) []Estimate {
	s := &Stream{Alpha: alpha}
	out := make([]Estimate, len(samples))
	for i, smp := range samples {
		out[i] = s.Push(uint64(i+1)*1e8, m.Power(smp))
	}
	return out
}

func checkAll(got, want []Estimate, tol float64) error {
	for i := range got {
		if err := CheckEstimate(got[i], want[i], tol); err != nil {
			return err
		}
	}
	return nil
}

func TestLeastSquaresRecoversExactCoefficients(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := testModel()
	samples := testSamples(200, r)
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = DesignRow(m.Events, s)
		y[i] = m.Power(s)
	}
	got, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCoeffs(got, m.Coeffs(), 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := LeastSquares(x, []float64{1, 2, 3}); err != ErrSingular {
		t.Fatalf("collinear design: got %v, want ErrSingular", err)
	}
}

func TestFlagsCoefficientPerturbation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := testModel()
	samples := testSamples(64, r)
	want := replay(m, 0.3, samples)
	for i := range m.Alpha {
		bad := testModel()
		bad.Alpha[i] *= 1 + 1e-6
		if err := checkAll(replay(bad, 0.3, samples), want, 1e-9); err == nil {
			t.Errorf("1e-6 relative change to alpha[%d] passed the stream check", i)
		}
		if err := CheckCoeffs(bad.Coeffs(), m.Coeffs(), CoeffTol); err == nil {
			t.Errorf("1e-6 relative change to alpha[%d] passed the coefficient check", i)
		}
	}
	if err := checkAll(replay(testModel(), 0.3, samples), want, 1e-9); err != nil {
		t.Fatalf("identical model flagged: %v", err)
	}
}

func TestFlagsSwappedAlphas(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	samples := testSamples(64, r)
	want := replay(testModel(), 1, samples)
	bad := testModel()
	bad.Alpha[0], bad.Alpha[1] = bad.Alpha[1], bad.Alpha[0]
	if err := checkAll(replay(bad, 1, samples), want, 1e-9); err == nil {
		t.Fatal("swapped alpha coefficients passed the stream check")
	}
}

func TestFlagsEnergyOffByOneSample(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	samples := testSamples(64, r)
	want := replay(testModel(), 1, samples)
	// An integral that lags one sample behind: each row reports the
	// energy up to the previous sample.
	lagged := append([]Estimate(nil), want...)
	for i := len(lagged) - 1; i > 0; i-- {
		lagged[i].TotalJ = want[i-1].TotalJ
	}
	if err := checkAll(lagged, want, 1e-9); err == nil {
		t.Fatal("energy lagging one sample passed the stream check")
	}
	// An integral that skips the first interval.
	skipped := append([]Estimate(nil), want...)
	first := want[1].TotalJ
	for i := 1; i < len(skipped); i++ {
		skipped[i].TotalJ -= first
	}
	if err := checkAll(skipped, want, 1e-9); err == nil {
		t.Fatal("energy missing one interval passed the stream check")
	}
}

func TestWindowFitsLastRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	old, cur := testModel(), testModel()
	cur.Gamma += 3
	w := &Window{Size: 32}
	for i, s := range testSamples(80, r) {
		m := old
		if i >= 48 {
			m = cur
		}
		w.Add(DesignRow(m.Events, s), m.Power(s))
	}
	got, err := w.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCoeffs(got, cur.Coeffs(), 1e-9); err != nil {
		t.Fatalf("window of the last 32 rows: %v", err)
	}
}

// TestPredictZeroColumns checks the prediction on a window where an
// event reads 0 on every row: it is the fit without that event, and it
// is not defined for a row on which the event counts.
func TestPredictZeroColumns(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := testModel()
	w := &Window{Size: 64}
	var last Sample
	for _, s := range testSamples(40, r) {
		s.Rates["PAPI_L3_TCM"] = 0
		w.Add(DesignRow(m.Events, s), m.Power(s))
		last = s
	}
	if _, err := w.Fit(); err != ErrSingular {
		t.Fatalf("window with a zero column: Fit error %v, want ErrSingular", err)
	}
	got, ok, err := w.PredictZeroColumns(DesignRow(m.Events, last))
	if err != nil || !ok {
		t.Fatalf("prediction on a row that reads 0 there: ok %v, err %v", ok, err)
	}
	if e := RelErr(got, m.Power(last)); e > 1e-12 {
		t.Fatalf("prediction %v, model %v", got, m.Power(last))
	}
	last.Rates["PAPI_L3_TCM"] = 1e6
	if _, ok, err := w.PredictZeroColumns(DesignRow(m.Events, last)); ok || err != nil {
		t.Fatalf("prediction on a row that counts the event: ok %v, err %v", ok, err)
	}
}

func TestCheckCV(t *testing.T) {
	if got := FoldSizes(23, 10); got[0] != 3 || got[2] != 3 || got[3] != 2 || got[9] != 2 {
		t.Fatalf("FoldSizes(23, 10) = %v", got)
	}
	r := rand.New(rand.NewSource(6))
	actual := make([]float64, 23)
	pred := make([]float64, 23)
	for i := range actual {
		actual[i] = 100 + 50*r.Float64()
		pred[i] = actual[i] * (1 + 0.1*(r.Float64()-0.5))
	}
	folds := make([]float64, 10)
	pos := 0
	var sum float64
	for f, n := range FoldSizes(23, 10) {
		folds[f] = MAPE(actual[pos:pos+n], pred[pos:pos+n])
		sum += folds[f]
		pos += n
	}
	if err := CheckCV(actual, pred, folds, sum/10, 1e-12); err != nil {
		t.Fatal(err)
	}
	folds[4] *= 1 + 1e-6
	if err := CheckCV(actual, pred, folds, sum/10, 1e-9); err == nil {
		t.Fatal("perturbed fold MAPE passed")
	}
	if err := CheckCV(actual, pred, folds[:9], sum/10, 1e-9); err == nil {
		t.Fatal("wrong fold count passed")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(0, 0) != 0 || RelErr(1, 1) != 0 {
		t.Fatal("equal values must have zero error")
	}
	if e := RelErr(100, 101); math.Abs(e-1.0/101) > 1e-15 {
		t.Fatalf("RelErr(100, 101) = %v", e)
	}
	if err := CheckCoeffs([]float64{math.NaN()}, []float64{1}, 1); err == nil {
		t.Fatal("NaN must not compare as close")
	}
}
