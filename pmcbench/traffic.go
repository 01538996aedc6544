package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"pmcpower/pmcbench/oracle"
)

// Client kinds of the generated estimate traffic. A session is one
// client, and a client's marshalling struct and label source do not
// change between its lines, so every valid line of a session has the
// session's kind.
const (
	kindNull     = iota // unlabelled, "power_w":null: a client whose struct has no omitempty
	kindOmitted         // unlabelled, power_w omitted: a client whose struct has omitempty
	kindLabelled        // labelled (a client with a power meter), to a frozen, quality-tracked session
	kindRefit           // labelled, to a ?refit= session
	kindInvalid         // rejected mid-stream with an NDJSON error row
	numKinds
)

var kindNames = [numKinds]string{"null", "omitted", "labelled", "refit", "invalid"}

// clientKinds are the four valid kinds. The serve workload gives each
// the same number of sessions: no client or recorded traffic in the
// repository says how real clients divide among them.
var clientKinds = [...]int{kindNull, kindOmitted, kindLabelled, kindRefit}

// Traffic shape. About one line in fifty is invalid, never the first
// line of a request.
const (
	invalidShare  = 0.02
	refitWindow   = 64  // ?refit= window of refit sessions
	samplePeriod  = 1e8 // 10 Hz sampler: time_ns advances 100 ms per row
	minBatch      = 90  // rows per bulk request: about ten seconds of samples
	maxBatch      = 110
	predictRows   = 100 // rows per /v1/predict request
	unknownEvent  = "PAPI_NOT_AN_EVENT"
	sessionAlphas = 3 // frozen sessions cycle through alpha 1, 0.5 and 0.3
)

// wireSample is the estimate line a Go client marshals: an unset
// *float64 label encodes as "power_w":null.
type wireSample struct {
	TimeNs   uint64             `json:"time_ns"`
	FreqMHz  int                `json:"freq_mhz"`
	VoltageV float64            `json:"voltage_v"`
	Rates    map[string]float64 `json:"rates"`
	PowerW   *float64           `json:"power_w"`
}

// wireSampleOmit is the same line from a client that omits an unset
// label.
type wireSampleOmit struct {
	TimeNs   uint64             `json:"time_ns"`
	FreqMHz  int                `json:"freq_mhz"`
	VoltageV float64            `json:"voltage_v"`
	Rates    map[string]float64 `json:"rates"`
	PowerW   *float64           `json:"power_w,omitempty"`
}

type wireRow struct {
	FreqMHz  int                `json:"freq_mhz"`
	VoltageV float64            `json:"voltage_v"`
	Rates    map[string]float64 `json:"rates"`
}

type predictRequest struct {
	Model string    `json:"model"`
	Rows  []wireRow `json:"rows"`
}

// trafficRow is one simulator row the traffic draws its values from.
type trafficRow struct {
	freqMHz  int
	voltageV float64
	rates    map[string]float64 // the model's events, by PAPI name
	powerW   float64            // measured node power
}

func (r trafficRow) sample() oracle.Sample {
	return oracle.Sample{FreqMHz: float64(r.freqMHz), VoltageV: r.voltageV, Rates: r.rates}
}

// line is one generated NDJSON line with what the oracle needs to check
// the row that answers it.
type line struct {
	kind   int
	reason string // expected error reason of an invalid line
	timeNs uint64
	sample oracle.Sample
	powerW float64 // label of labelled and refit lines
}

// session is one generated client session: its client kind, query
// parameters and request bodies, in order. Replays of a session go to a
// fresh session id, so each replay must produce the same rows.
type session struct {
	id     string
	kind   int     // the client kind of every valid line
	refit  bool    // kind == kindRefit
	alpha  float64 // EWMA factor in effect (1 when the query omits it)
	query  string
	bodies [][]byte
	lines  [][]line
}

// valid counts the lines of batch i that the daemon must accept.
func (s *session) valid(i int) int {
	n := 0
	for _, l := range s.lines[i] {
		if l.kind != kindInvalid {
			n++
		}
	}
	return n
}

// generator makes the seeded traffic. It marshals every line and body
// with encoding/json, keeps time_ns strictly increasing within a
// session, and never puts an invalid line first in a request body.
type generator struct {
	r      *rand.Rand
	rows   []trafficRow
	events []string // the model's events
	model  string   // model name on the wire
}

func newGenerator(seed uint64, rows []trafficRow, events []string, model string) *generator {
	return &generator{r: rand.New(rand.NewSource(int64(seed))), rows: rows, events: events, model: model}
}

// sessionQuery is the query string of a session with the given alpha
// and refit choice.
func (g *generator) sessionQuery(alpha float64, refit bool) string {
	q := "model=" + g.model
	if alpha != 1 {
		q += fmt.Sprintf("&alpha=%g", alpha)
	}
	if refit {
		q += fmt.Sprintf("&refit=%d", refitWindow)
	}
	return q
}

// session generates one session of the given client kind: batches
// requests of lo..hi lines. invalid enables invalid lines.
func (g *generator) session(id string, kind int, alpha float64, batches, lo, hi int, invalid bool) (*session, error) {
	refit := kind == kindRefit
	if refit {
		alpha = 1
	}
	s := &session{id: id, kind: kind, refit: refit, alpha: alpha, query: g.sessionQuery(alpha, refit)}
	t := uint64(1e9) + uint64(g.r.Int63n(1e9))
	for b := 0; b < batches; b++ {
		n := lo + g.r.Intn(hi-lo+1)
		var body []byte
		lines := make([]line, 0, n)
		for i := 0; i < n; i++ {
			t += samplePeriod
			bad := invalid && i > 0 && g.r.Float64() < invalidShare
			l, data, err := g.line(kind, bad, t)
			if err != nil {
				return nil, err
			}
			body = append(append(body, data...), '\n')
			lines = append(lines, l)
		}
		s.bodies = append(s.bodies, body)
		s.lines = append(s.lines, lines)
	}
	return s, nil
}

// line marshals one sample at time t with the struct of the client
// kind; bad makes it an invalid line of that client.
func (g *generator) line(kind int, bad bool, t uint64) (line, []byte, error) {
	row := g.rows[g.r.Intn(len(g.rows))]
	l := line{kind: kind, timeNs: t, sample: row.sample(), powerW: row.powerW}
	rates := row.rates
	freq := row.freqMHz
	var label *float64
	if kind == kindLabelled || kind == kindRefit {
		p := row.powerW
		label = &p
	}
	if bad {
		l.kind = kindInvalid
		reasons := []string{"bad_rate", "missing_event", "unknown_event", "bad_operating_point"}
		if kind == kindRefit {
			reasons = append(reasons, "bad_power")
		}
		l.reason = reasons[g.r.Intn(len(reasons))]
		rates = make(map[string]float64, len(row.rates)+1)
		for k, v := range row.rates {
			rates[k] = v
		}
		ev := g.events[g.r.Intn(len(g.events))]
		switch l.reason {
		case "bad_rate":
			rates[ev] = -1 - rates[ev]
		case "missing_event":
			delete(rates, ev)
		case "unknown_event":
			rates[unknownEvent] = 1
		case "bad_operating_point":
			freq = 0
		case "bad_power":
			p := -row.powerW
			label = &p
		}
	}
	var data []byte
	var err error
	if kind == kindNull {
		data, err = json.Marshal(wireSample{TimeNs: t, FreqMHz: freq, VoltageV: row.voltageV, Rates: rates, PowerW: label})
	} else {
		data, err = json.Marshal(wireSampleOmit{TimeNs: t, FreqMHz: freq, VoltageV: row.voltageV, Rates: rates, PowerW: label})
	}
	return l, data, err
}

// predictBody is one /v1/predict request of predictRows random rows and
// the rows it carries.
func (g *generator) predictBody() ([]byte, []trafficRow, error) {
	req := predictRequest{Model: g.model, Rows: make([]wireRow, predictRows)}
	rows := make([]trafficRow, predictRows)
	for i := range req.Rows {
		rows[i] = g.rows[g.r.Intn(len(g.rows))]
		req.Rows[i] = wireRow{FreqMHz: rows[i].freqMHz, VoltageV: rows[i].voltageV, Rates: rows[i].rates}
	}
	data, err := json.Marshal(req)
	return data, rows, err
}

// kindShares returns the share of each valid kind among the valid lines
// of the sessions.
func kindShares(sessions []*session) [numKinds]float64 {
	var counts [numKinds]float64
	var total float64
	for _, s := range sessions {
		for _, batch := range s.lines {
			for _, l := range batch {
				if l.kind != kindInvalid {
					counts[l.kind]++
					total++
				}
			}
		}
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts
}
