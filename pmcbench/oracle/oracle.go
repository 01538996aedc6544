// Package oracle recomputes pmcpower's outputs from their inputs without
// using any pmcpower code: Equation 1 from a model document's
// coefficients, the EWMA and trapezoidal energy integral of a streaming
// session, an extended-precision least-squares solve for trained and
// refitted coefficients, and the cross-validation MAPE from the
// out-of-fold predictions. The benchmark compares every output it
// collects against these.
package oracle

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
)

// Model holds the Equation-1 coefficients of a model document:
//
//	P = δ + γ·V + β·V²f + Σ α_n · (rate_n / f_Hz) · V²f,  V²f = V²·f_MHz/1000
type Model struct {
	Events []string  `json:"events"`
	Alpha  []float64 `json:"alpha"`
	Beta   float64   `json:"beta"`
	Gamma  float64   `json:"gamma"`
	Delta  float64   `json:"delta"`
}

// ParseModel reads the coefficients from a model JSON document.
func ParseModel(doc []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("oracle: parsing model document: %w", err)
	}
	if len(m.Events) == 0 || len(m.Alpha) != len(m.Events) {
		return nil, fmt.Errorf("oracle: model document has %d events and %d alpha coefficients", len(m.Events), len(m.Alpha))
	}
	return &m, nil
}

// Coeffs returns the coefficients in design order: δ, α_1..α_k, β, γ.
func (m *Model) Coeffs() []float64 {
	out := append([]float64{m.Delta}, m.Alpha...)
	return append(out, m.Beta, m.Gamma)
}

// Sample is one operating point with its counter rates (events/s).
type Sample struct {
	FreqMHz  float64
	VoltageV float64
	Rates    map[string]float64
}

// DesignRow returns the Equation-1 design row of a sample in the
// order of Coeffs: 1, E_n·V²f for each event, V²f, V.
func DesignRow(events []string, s Sample) []float64 {
	v2f := s.VoltageV * s.VoltageV * s.FreqMHz / 1000
	fHz := s.FreqMHz * 1e6
	row := make([]float64, 0, len(events)+3)
	row = append(row, 1)
	for _, ev := range events {
		row = append(row, s.Rates[ev]/fHz*v2f)
	}
	return append(row, v2f, s.VoltageV)
}

// Dot is the inner product of a design row and a coefficient vector.
func Dot(row, coeffs []float64) float64 {
	var p float64
	for i, x := range row {
		p += x * coeffs[i]
	}
	return p
}

// Power evaluates Equation 1 for one sample.
func (m *Model) Power(s Sample) float64 {
	return Dot(DesignRow(m.Events, s), m.Coeffs())
}

// Estimate is what a streaming session reports after one sample.
type Estimate struct {
	InstantW  float64
	SmoothedW float64
	TotalJ    float64
	Samples   uint64
}

// Stream replays one estimator session: exponential smoothing with
// factor Alpha (the first sample primes the average) and trapezoidal
// integration of the instantaneous power between consecutive samples.
type Stream struct {
	Alpha    float64
	primed   bool
	lastNs   uint64
	lastW    float64
	smoothed float64
	totalJ   float64
	n        uint64
}

// Push folds one accepted sample with its instantaneous power.
func (s *Stream) Push(timeNs uint64, instW float64) Estimate {
	if s.primed {
		s.smoothed = s.Alpha*instW + (1-s.Alpha)*s.smoothed
		s.totalJ += float64(timeNs-s.lastNs) / 1e9 * (instW + s.lastW) / 2
	} else {
		s.smoothed = instW
		s.primed = true
	}
	s.lastNs, s.lastW = timeNs, instW
	s.n++
	return Estimate{InstantW: instW, SmoothedW: s.smoothed, TotalJ: s.totalJ, Samples: s.n}
}

// RelErr is |a−b| relative to the larger magnitude (0 when both are 0).
func RelErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// CheckEstimate compares a reported estimate with the oracle's.
func CheckEstimate(got, want Estimate, tol float64) error {
	if got.Samples != want.Samples {
		return fmt.Errorf("samples %d, oracle %d", got.Samples, want.Samples)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"instant_w", got.InstantW, want.InstantW},
		{"smoothed_w", got.SmoothedW, want.SmoothedW},
		{"total_j", got.TotalJ, want.TotalJ},
	} {
		if e := RelErr(f.got, f.want); !(e <= tol) {
			return fmt.Errorf("%s %v, oracle %v (relative error %.3g > %.3g)", f.name, f.got, f.want, e, tol)
		}
	}
	return nil
}

// CheckCoeffs compares fitted coefficients element by element.
func CheckCoeffs(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d coefficients, oracle %d", len(got), len(want))
	}
	for i := range got {
		if e := RelErr(got[i], want[i]); !(e <= tol) {
			return fmt.Errorf("coefficient %d is %v, oracle %v (relative error %.3g > %.3g)", i, got[i], want[i], e, tol)
		}
	}
	return nil
}

// Tolerances of the benchmark's comparisons, as relative errors.
const (
	// EstimateTol bounds Equation-1 watts, EWMA and joules computed by
	// the program against the oracle's replay of the same samples.
	EstimateTol = 1e-9
	// CoeffTol bounds trained coefficients against the oracle's
	// extended-precision solve; it is below 1e-6 so that a 1e-6
	// relative change to one coefficient is caught.
	CoeffTol = 1e-7
	// RefitTol bounds streaming-refit estimates against the oracle's
	// fit of the same window.
	RefitTol = 1e-6
)

// ErrSingular reports a design whose normal matrix has no inverse.
var ErrSingular = errors.New("oracle: singular least-squares system")

// prec is the mantissa width of the extended-precision solve: products
// of two float64 values are exact in 106 bits, and the margin keeps the
// elimination's rounding far below float64 resolution.
const prec = 256

// LeastSquares returns the coefficients b minimising ‖X·b − y‖₂. It
// forms the normal equations XᵀX·b = Xᵀy and solves them by Gaussian
// elimination with partial pivoting, all in 256-bit floating point, so
// the squared condition number of the normal equations costs nothing
// at float64 resolution. Rows of x are observations.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("oracle: %d design rows for %d observations", len(x), len(y))
	}
	p := len(x[0])
	if len(x) < p {
		return nil, fmt.Errorf("oracle: %d observations cannot determine %d coefficients", len(x), p)
	}
	newF := func() *big.Float { return new(big.Float).SetPrec(prec) }
	a := make([][]*big.Float, p)
	for i := range a {
		a[i] = make([]*big.Float, p+1) // augmented with Xᵀy
		for j := range a[i] {
			a[i][j] = newF()
		}
	}
	row := make([]*big.Float, p+1)
	for i := range row {
		row[i] = newF()
	}
	prod := newF()
	for r, xr := range x {
		if len(xr) != p {
			return nil, fmt.Errorf("oracle: design row %d has %d columns, want %d", r, len(xr), p)
		}
		for j, v := range xr {
			row[j].SetFloat64(v)
		}
		row[p].SetFloat64(y[r])
		for i := 0; i < p; i++ {
			for j := i; j <= p; j++ {
				a[i][j].Add(a[i][j], prod.Mul(row[i], row[j]))
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			a[i][j].Set(a[j][i])
		}
	}
	// Forward elimination with partial pivoting.
	for c := 0; c < p; c++ {
		piv := c
		for r := c + 1; r < p; r++ {
			if new(big.Float).Abs(a[r][c]).Cmp(new(big.Float).Abs(a[piv][c])) > 0 {
				piv = r
			}
		}
		if a[piv][c].Sign() == 0 {
			return nil, ErrSingular
		}
		a[c], a[piv] = a[piv], a[c]
		for r := c + 1; r < p; r++ {
			f := newF().Quo(a[r][c], a[c][c])
			for j := c; j <= p; j++ {
				a[r][j].Sub(a[r][j], prod.Mul(f, a[c][j]))
			}
		}
	}
	// Back substitution.
	sol := make([]*big.Float, p)
	for i := p - 1; i >= 0; i-- {
		s := newF().Set(a[i][p])
		for j := i + 1; j < p; j++ {
			s.Sub(s, prod.Mul(a[i][j], sol[j]))
		}
		sol[i] = s.Quo(s, a[i][i])
	}
	out := make([]float64, p)
	for i, s := range sol {
		out[i], _ = s.Float64()
	}
	return out, nil
}

// Window is the oracle of a streaming refit: the least-squares fit of
// the most recent Size labelled design rows.
type Window struct {
	Size int
	rows [][]float64
	ys   []float64
}

// Add appends a labelled row, dropping the oldest beyond Size.
func (w *Window) Add(row []float64, y float64) {
	w.rows = append(w.rows, row)
	w.ys = append(w.ys, y)
	if len(w.rows) > w.Size {
		w.rows = w.rows[1:]
		w.ys = w.ys[1:]
	}
}

// Fit solves the window's least-squares problem.
func (w *Window) Fit() ([]float64, error) { return LeastSquares(w.rows, w.ys) }

// PredictZeroColumns is the least-squares prediction for row on a
// window in which some columns read 0 on every row (an event that did
// not count). Such a window has no unique fit, but every fit predicts
// the same value for a row that also reads 0 there: the prediction of
// the fit with those columns dropped. ok is false when row reads
// non-zero in such a column, where fits disagree.
func (w *Window) PredictZeroColumns(row []float64) (p float64, ok bool, err error) {
	keep := make([]bool, len(row))
	for j := range row {
		for _, r := range w.rows {
			if r[j] != 0 {
				keep[j] = true
				break
			}
		}
		if !keep[j] && row[j] != 0 {
			return 0, false, nil
		}
	}
	drop := func(r []float64) []float64 {
		var out []float64
		for j, v := range r {
			if keep[j] {
				out = append(out, v)
			}
		}
		return out
	}
	x := make([][]float64, len(w.rows))
	for i, r := range w.rows {
		x[i] = drop(r)
	}
	coef, err := LeastSquares(x, w.ys)
	if err != nil {
		return 0, false, err
	}
	return Dot(drop(row), coef), true, nil
}

// FoldSizes returns the test-set sizes of k-fold cross validation over
// n rows: n = k·q + r, and the first r folds hold one extra row.
func FoldSizes(n, k int) []int {
	sizes := make([]int, k)
	for f := range sizes {
		sizes[f] = n / k
		if f < n%k {
			sizes[f]++
		}
	}
	return sizes
}

// MAPE is the mean absolute percentage error in percent, skipping
// observations whose actual value is below 1e-9 in magnitude.
func MAPE(actual, predicted []float64) float64 {
	var sum float64
	var used int
	for i, a := range actual {
		if math.Abs(a) < 1e-9 {
			continue
		}
		sum += 100 * math.Abs((a-predicted[i])/a)
		used++
	}
	if used == 0 {
		return math.NaN()
	}
	return sum / float64(used)
}

// CheckCV recomputes the per-fold and mean MAPE of a k-fold cross
// validation from its out-of-fold predictions, listed fold after fold,
// and compares them with the reported values.
func CheckCV(actual, predicted, foldMAPE []float64, meanMAPE, tol float64) error {
	if len(actual) != len(predicted) {
		return fmt.Errorf("%d actuals for %d predictions", len(actual), len(predicted))
	}
	pos := 0
	var sum float64
	for f, size := range FoldSizes(len(actual), len(foldMAPE)) {
		m := MAPE(actual[pos:pos+size], predicted[pos:pos+size])
		if e := RelErr(m, foldMAPE[f]); !(e <= tol) {
			return fmt.Errorf("fold %d MAPE %v, recomputed %v", f, foldMAPE[f], m)
		}
		sum += m
		pos += size
	}
	if mean := sum / float64(len(foldMAPE)); !(RelErr(mean, meanMAPE) <= tol) {
		return fmt.Errorf("CV MAPE %v, recomputed %v", meanMAPE, mean)
	}
	return nil
}
