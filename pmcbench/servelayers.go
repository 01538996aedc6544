package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/quality"
	"pmcpower/internal/serve"
)

// layerReps is how many times each in-process layer measurement
// repeats over its samples; the metric is the median.
const layerReps = 7

// serveLayers is the serve workload's traced ledger. It times
// single-kind bulk batches over HTTP, then each layer under the HTTP
// path in-process on the same samples: the serving engine
// (Server.EstimateSample), the Equation-1 push with and without refit,
// the quality observers and Model.Predict. The remainder of the HTTP
// cost is parse, encode, flight recorder, net/http and TCP.
func serveLayers(b *bench, st *serveState, chk *checker, shares [numKinds]float64) error {
	var httpUS [numKinds]float64
	kinds := clientKinds[:]
	var samples *session
	var buf bytes.Buffer
	for _, k := range kinds {
		s, err := st.gen.session("k-"+kindNames[k], k, 1, singleKindBatches, predictRows, predictRows, false)
		if err != nil {
			return err
		}
		if k == kindLabelled {
			samples = s
		}
		name := "serve.http." + kindNames[k]
		root := b.tr.start(name, nil, 1)
		var resp [][]byte
		var perSample []float64
		for bi, body := range s.bodies {
			url := fmt.Sprintf("%s/v1/estimate?session=%s&%s", st.daemon.base, s.id, s.query)
			sp := b.tr.start(name+".request", root, 1)
			tid, err := post(st.clients[0], url, "application/x-ndjson", body, &buf)
			d := sp.end()
			if err != nil {
				return fmt.Errorf("%s batch %d: %w", s.id, bi, err)
			}
			perSample = append(perSample, d.Seconds()*1e6/float64(len(s.lines[bi])))
			resp = append(resp, normalize(buf.Bytes(), tid))
		}
		root.end()
		chk.session(s, resp)
		httpUS[k] = median(perSample)
		b.set("serve.http_us_per_sample."+kindNames[k], httpUS[k])
	}

	f, err := os.Open(st.modelPath)
	if err != nil {
		return err
	}
	m, err := core.ReadJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	// The labelled single-kind session's lines as the program's types.
	var css []core.CounterSample
	var powers []float64
	var rows []*acquisition.Row
	for _, batch := range samples.lines {
		for _, l := range batch {
			rates := make(map[pmu.EventID]float64, len(l.sample.Rates))
			for name, v := range l.sample.Rates {
				ev, err := pmu.ByName(name)
				if err != nil {
					return err
				}
				rates[ev.ID] = v
			}
			cs := core.CounterSample{TimeNs: l.timeNs, Rates: rates, VoltageV: l.sample.VoltageV, FreqMHz: int(l.sample.FreqMHz)}
			css = append(css, cs)
			powers = append(powers, l.powerW)
			rows = append(rows, &acquisition.Row{FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV, Rates: rates})
		}
	}
	n := float64(len(css))

	reg := serve.NewRegistry()
	if _, _, err := reg.LoadFile(st.modelPath); err != nil {
		return err
	}
	srv := serve.New(serve.Config{Registry: reg})
	defer srv.Close()
	engine, err := perSampleRepeat(b, "serve.engine", func(rep int) error {
		sid := fmt.Sprintf("engine-%d", rep)
		for _, cs := range css {
			if _, err := srv.EstimateSample(modelName, sid, cs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	push, err := perSampleRepeat(b, "core.push", func(int) error {
		ss, err := core.NewStreamSession(m, 0.5)
		if err != nil {
			return err
		}
		for _, cs := range css {
			if _, err := ss.Push(cs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pushRefit, err := perSampleRepeat(b, "core.push_refit", func(int) error {
		ss, err := core.NewStreamSessionRefit(m, 1, refitWindow)
		if err != nil {
			return err
		}
		for i, cs := range css {
			if _, err := ss.PushLabeled(cs, powers[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	preds := m.PredictAll(rows)
	observe, err := perSampleRepeat(b, "quality.observe", func(int) error {
		mon := quality.NewMonitor(quality.Config{})
		tr := quality.NewTracker(256)
		for i, cs := range css {
			mon.Observe(quality.Observation{TimeNs: cs.TimeNs, Session: "q", FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV,
				Rates: cs.Rates, PredictedW: preds[i], ObservedW: powers[i]})
			tr.Observe(preds[i], powers[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	var sink float64
	predict, err := perSampleRepeat(b, "core.predict", func(int) error {
		for _, r := range rows {
			sink += m.Predict(r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sink == 0 {
		b.fail("Model.Predict returned only zeros")
	}
	engineUS := engine / n * 1e6
	pushNS := push / n * 1e9
	refitNS := pushRefit / n * 1e9
	observeNS := observe / n * 1e9
	b.set("serve.engine_us_per_sample", engineUS)
	b.set("core.push_ns", pushNS)
	b.set("core.push_refit_ns", refitNS)
	b.set("quality.observe_ns", observeNS)
	b.set("core.predict_ns", predict/n*1e9)

	// Reconciliation: the bulk mix's HTTP cost per sample against the
	// layers it passes through.
	var httpMix float64
	for _, k := range kinds {
		httpMix += shares[k] * httpUS[k]
	}
	labelled := shares[kindLabelled] + shares[kindRefit]
	qualityUS := labelled * observeNS / 1e3
	refitUS := shares[kindRefit] * (refitNS - pushNS) / 1e3
	rest := httpMix - engineUS - qualityUS - refitUS
	b.set("serve.unattributed_us_per_sample", rest)
	b.note("ledger (us/sample, bulk mix): HTTP %.3f = engine %.3f + quality %.3f + refit %.3f + unattributed %.3f (parse, encode, flight recorder, net/http, TCP)",
		httpMix, engineUS, qualityUS, refitUS, rest)
	if rest < 0 {
		b.fail("serve reconciliation: layers sum to %.3f us/sample, more than the %.3f us HTTP cost", httpMix-rest, httpMix)
	}
	if refitNS < pushNS {
		b.fail("serve reconciliation: a refit push (%.0f ns) is cheaper than a frozen push (%.0f ns)", refitNS, pushNS)
	}
	return nil
}

// perSampleRepeat runs fn layerReps times under a span each and returns
// the median wall time of one run in seconds.
func perSampleRepeat(b *bench, name string, fn func(rep int) error) (float64, error) {
	var times []float64
	for rep := 0; rep < layerReps; rep++ {
		sp := b.tr.start(name, nil, 0)
		t0 := time.Now()
		err := fn(rep)
		times = append(times, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(times), nil
}
