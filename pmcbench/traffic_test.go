package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

var testTrafficEvents = []string{"PAPI_TOT_CYC", "PAPI_LST_INS", "PAPI_L3_TCM"}

func testTrafficRows() []trafficRow {
	var rows []trafficRow
	for i, f := range []int{1200, 1600, 2000, 2400, 2600} {
		rows = append(rows, trafficRow{
			freqMHz:  f,
			voltageV: 0.8 + 0.05*float64(i),
			rates: map[string]float64{
				"PAPI_TOT_CYC": float64(f) * 1e6 * float64(i+1),
				"PAPI_LST_INS": 1.5e9 + float64(i)*1e8,
				"PAPI_L3_TCM":  2e6 * float64(i+1),
			},
			powerW: 150 + 10*float64(i),
		})
	}
	return rows
}

func testSession(t *testing.T, seed uint64, kind int) *session {
	t.Helper()
	g := newGenerator(seed, testTrafficRows(), testTrafficEvents, modelName)
	s, err := g.session("s", kind, 0.5, 20, minBatch, maxBatch, true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := testSession(t, 7, kindNull), testSession(t, 7, kindNull), testSession(t, 8, kindNull)
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			t.Fatalf("same seed, batch %d differs", i)
		}
	}
	if bytes.Equal(a.bodies[0], c.bodies[0]) {
		t.Fatal("different seeds produced the same first batch")
	}
}

// TestGeneratorRules checks the rules the traffic keeps: every line is
// encoding/json output of the session's client struct, every valid
// line has the session's kind, time_ns strictly increases within a
// session, no request starts with an invalid line, and every invalid
// line carries the fault its expected reason names.
func TestGeneratorRules(t *testing.T) {
	for _, kind := range clientKinds {
		s := testSession(t, 3, kind)
		if s.kind != kind || s.refit != (kind == kindRefit) || strings.Contains(s.query, "refit=") != s.refit {
			t.Fatalf("%s session: kind %d, refit %v, query %q", kindNames[kind], s.kind, s.refit, s.query)
		}
		var last uint64
		var kinds [numKinds]int
		for bi, body := range s.bodies {
			raw := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			if len(raw) != len(s.lines[bi]) || len(raw) < minBatch || len(raw) > maxBatch {
				t.Fatalf("batch %d: %d lines, %d planned", bi, len(raw), len(s.lines[bi]))
			}
			if s.lines[bi][0].kind == kindInvalid {
				t.Fatalf("batch %d starts with an invalid line", bi)
			}
			for i, l := range s.lines[bi] {
				kinds[l.kind]++
				if l.timeNs <= last {
					t.Fatalf("batch %d line %d: time_ns %d after %d", bi, i, l.timeNs, last)
				}
				last = l.timeNs
				checkLine(t, raw[i], l, kind)
			}
		}
		for k, n := range kinds {
			if (k == kind || k == kindInvalid) != (n > 0) {
				t.Fatalf("%s session line kinds %v", kindNames[kind], kinds)
			}
		}
	}
}

// checkLine checks one marshalled line of a session of client kind
// kind.
func checkLine(t *testing.T, raw []byte, l line, kind int) {
	t.Helper()
	var decoded wireSampleOmit
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("line %s: %v", raw, err)
	}
	var again []byte
	var err error
	if kind == kindNull {
		again, err = json.Marshal(wireSample(decoded))
	} else {
		again, err = json.Marshal(decoded)
	}
	if err != nil || !bytes.Equal(again, raw) {
		t.Fatalf("line is not encoding/json output of the client's struct:\n%s\n%s", raw, again)
	}
	hasLabel := decoded.PowerW != nil
	switch kind {
	case kindNull:
		if !bytes.Contains(raw, []byte(`"power_w":null`)) {
			t.Fatalf("null client's line without power_w:null: %s", raw)
		}
	case kindOmitted:
		if bytes.Contains(raw, []byte("power_w")) {
			t.Fatalf("omitted client's line carries power_w: %s", raw)
		}
	case kindLabelled, kindRefit:
		if !hasLabel || (l.kind != kindInvalid && *decoded.PowerW != l.powerW) {
			t.Fatalf("labelled client's line without its label: %s", raw)
		}
	}
	if l.kind != kindInvalid {
		return
	}
	ok := false
	switch l.reason {
	case "bad_rate":
		for _, v := range decoded.Rates {
			ok = ok || v < 0
		}
	case "missing_event":
		ok = len(decoded.Rates) == len(testTrafficEvents)-1
	case "unknown_event":
		_, ok = decoded.Rates[unknownEvent]
	case "bad_operating_point":
		ok = decoded.FreqMHz == 0
	case "bad_power":
		ok = kind == kindRefit && hasLabel && *decoded.PowerW < 0
	}
	if !ok {
		t.Fatalf("invalid line does not carry its %s fault: %s", l.reason, raw)
	}
}

func TestKindShares(t *testing.T) {
	var sessions []*session
	for i, k := range clientKinds {
		sessions = append(sessions, testSession(t, uint64(5+i), k))
	}
	shares := kindShares(sessions)
	var sum float64
	for k, v := range shares {
		sum += v
		if k != kindInvalid && (v < 0.2 || v > 0.3) {
			t.Errorf("share of %s is %v with one session of each client kind", kindNames[k], v)
		}
	}
	if shares[kindInvalid] != 0 || sum < 1-1e-12 || sum > 1+1e-12 {
		t.Fatalf("shares %v", shares)
	}
}

func TestNormalizeAndCellOf(t *testing.T) {
	id := strings.Repeat("ab", 16)
	got := normalize([]byte(`{"trace_id":"`+id+`"}`+"\n"), id)
	if want := `{"trace_id":"` + string(tracePlaceholder) + `"}` + "\n"; string(got) != want {
		t.Fatalf("normalize: %s", got)
	}
	if p, app := cellOf("lu_solver_2400MHz_run3.trc"); p != "lu_solver_2400MHz" || app != "lu_solver" {
		t.Fatalf("cellOf: %q %q", p, app)
	}
}
