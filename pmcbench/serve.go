package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/workloads"

	"pmcpower/pmcbench/oracle"
)

// Load shape of the serve workload.
const (
	connections = 2  // one closed-loop worker per client connection
	bulkPerKind = 2  // bulk sessions per client kind and worker
	bulkBatches = 40 // requests per bulk session and round
	// maxBulkRounds keeps the sessions a run creates (16 per round, the
	// reference pass's round 0 included) under pmcpowerd's default
	// -max-sessions of 1024 even for a daemon several times faster than
	// today's; past it the bulk slices send nothing and the rate covers
	// the slices that ran.
	maxBulkRounds     = 50
	interactiveRate   = 250 // single-sample requests per second, both workers together
	predictBodies     = 32
	singleKindBatches = 30 // traced run: requests per single-kind session
	modelName         = "pmcbench"
	trafficSeedOffset = 1000003 // the traffic campaign's seed differs from the model's
	checkEvery        = 16      // refit rows between windowed least-squares checkpoints
	// The timed phases alternate in cycles, each phase taking its share
	// of every cycle, so that each metric samples the whole run: the
	// shared machine's speed changes from one second to the next.
	cycles                                    = 10
	bulkShare, predictShare, interactiveShare = 0.45, 0.20, 0.35
)

// serveState is what the serve set-up leaves for the phases.
type serveState struct {
	dir         string
	modelPath   string
	modelDoc    []byte
	daemon      *daemon
	clients     [connections]*http.Client
	bulk        [connections][]*session
	interactive [connections][]*session
	predict     [][]byte
	predictRows [][]trafficRow
	gen         *generator
}

func runServe(b *bench) error {
	if b.daemon == "" {
		return errors.New("-daemon is required")
	}
	dir, err := os.MkdirTemp(b.outDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := &serveState{dir: dir}
	for i := range st.clients {
		st.clients[i] = &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	defer func() {
		if st.daemon != nil {
			st.daemon.stop()
		}
	}()
	err = b.setup(setupReps, func() (func(), error) {
		if err := serveSetup(b, st); err != nil {
			return nil, err
		}
		return func() {
			st.daemon.stop()
			st.daemon = nil
			for _, c := range st.clients {
				c.CloseIdleConnections()
			}
		}, nil
	})
	if err != nil {
		return err
	}
	model, err := oracle.ParseModel(st.modelDoc)
	if err != nil {
		return err
	}
	chk := &checker{b: b, model: model}

	before, err := st.scrape()
	if err != nil {
		return err
	}
	ref := runReference(b, st)
	afterRef, err := st.scrape()
	if err != nil {
		return err
	}
	// The daemon keeps memory per request served (see the README), so
	// its peak RSS is read after this fixed amount of work, not after
	// the timed phases, whose request count grows with its speed.
	refHWM, err := st.daemon.vmHWM()
	if err != nil {
		return err
	}
	var bulk bulkResult
	var pred predictResult
	inter := interactiveResult{responses: map[string][][]byte{}}
	deltas := map[string]map[string]float64{"bulk": {}, "predict": {}, "interactive": {}}
	prev := afterRef
	for c := 0; c < cycles; c++ {
		for _, ph := range []struct {
			name string
			run  func()
		}{
			{"bulk", func() { runBulk(b, st, ref, &bulk) }},
			{"predict", func() { runPredict(b, st, ref, &pred) }},
			{"interactive", func() { runInteractive(b, st, &inter) }},
		} {
			ph.run()
			cur, err := st.scrape()
			if err != nil {
				return err
			}
			for k, v := range cur {
				deltas[ph.name][k] += v - prev[k]
			}
			prev = cur
		}
	}
	hwm, err := st.daemon.vmHWM()
	if err != nil {
		return err
	}

	for w := range st.bulk {
		for _, s := range st.bulk[w] {
			chk.session(s, ref.bulk[s.id])
		}
		for _, s := range st.interactive[w] {
			chk.session(s, inter.responses[s.id])
		}
	}
	chk.predict(st, ref.predict)
	chk.report()
	refDelta := map[string]float64{}
	for k, v := range afterRef {
		refDelta[k] = v - before[k]
	}
	checkCounters(b, "reference", refDelta, ref.estimates, ref.predicts, ref.invalid, ref.sessions)
	checkCounters(b, "bulk", deltas["bulk"], bulk.requests, 0, bulk.invalid, bulk.sessions)
	checkCounters(b, "predict", deltas["predict"], 0, pred.requests, 0, 0)
	checkCounters(b, "interactive", deltas["interactive"], inter.requests, 0, 0, inter.sessions)

	// An operation is one estimated sample; the bulk phase gives the
	// daemon's CPU cost of one. Rates and latencies are reported, not
	// gated (see the README).
	b.set("cpu_us_per_op", bulk.cpu.Seconds()*1e6/float64(bulk.accepted))
	b.set("max_rss_mb", float64(refHWM)/1024)
	b.note("daemon peak RSS: %.1f MiB after the reference pass (%d requests), %.1f MiB after the timed phases",
		float64(refHWM)/1024, ref.estimates+ref.predicts, float64(hwm)/1024)
	b.note("bulk: %d requests, %d rows accepted in %.2f s (%.0f/s overall) over %d connections, daemon CPU %.2f s; %d rounds",
		bulk.requests, bulk.accepted, bulk.rate.elapsed.Seconds(), float64(bulk.accepted)/bulk.rate.elapsed.Seconds(),
		connections, bulk.cpu.Seconds(), bulk.rounds)
	b.note("predict: %d requests, %d rows in %.2f s (%.0f/s overall)", pred.requests, pred.rows, pred.rate.elapsed.Seconds(),
		float64(pred.rows)/pred.rate.elapsed.Seconds())
	b.note("rate windows of %v: bulk %s, predict %s", rateWindow, bulk.rate.summary(), pred.rate.summary())
	b.note("interactive: %d requests at %d/s, latency p50 %.3f ms p90 %.3f ms p99 %.3f ms; generator lateness p50 %.3f ms p99 %.3f ms",
		inter.requests, interactiveRate, median(inter.latencyMS), quantile(inter.latencyMS, 0.9), quantile(inter.latencyMS, 0.99),
		median(inter.lateMS), quantile(inter.lateMS, 0.99))
	b.note("daemon quality-state transitions during the phases: %v",
		counter(prev, "pmcpowerd_quality_transitions_total", "")-counter(before, "pmcpowerd_quality_transitions_total", ""))
	shares := kindShares(flatten(st.bulk))
	b.note("bulk mix of valid rows: null %.3f, omitted %.3f, labelled %.3f, refit %.3f; invalid rows sent %d",
		shares[kindNull], shares[kindOmitted], shares[kindLabelled], shares[kindRefit], bulk.invalid)
	if b.traced {
		b.note("traced: estimate %.0f samples/s, %.3f us CPU/sample, predict %.0f rows/s, interactive p50 %.3f ms",
			bulk.rate.value(), bulk.cpu.Seconds()*1e6/float64(bulk.accepted), pred.rate.value(), median(inter.latencyMS))
		counterDeltas(b, deltas)
		b.set("serve.predict_us_per_row", median(b.tr.durations("serve.predict.request"))*1e6/predictRows)
		return serveLayers(b, st, chk, shares)
	}
	return nil
}

// slice is how long one phase runs in each cycle.
func (b *bench) slice(share float64) time.Duration {
	return time.Duration(float64(b.seconds) * share / cycles)
}

func flatten(perWorker [connections][]*session) []*session {
	var out []*session
	for _, ss := range perWorker {
		out = append(out, ss...)
	}
	return out
}

// serveSetup calibrates the served model, acquires the traffic
// campaign, starts pmcpowerd, waits for it to be healthy and generates
// the traffic.
func serveSetup(b *bench, st *serveState) error {
	cal, err := calibrateOnce(b, b.seed, b.par, nil, nil)
	if err != nil {
		return err
	}
	var doc bytes.Buffer
	if err := cal.model.WriteJSON(&doc); err != nil {
		return err
	}
	st.modelDoc = doc.Bytes()
	st.modelPath = filepath.Join(st.dir, modelName+".json")
	if err := os.WriteFile(st.modelPath, st.modelDoc, 0o644); err != nil {
		return err
	}
	ds, err := acquisition.AcquireCtx(context.Background(), acquisition.Options{
		Seed: b.seed + trafficSeedOffset, Events: acquisitionEvents(cal.events), Parallelism: b.par,
	}, workloads.Active(), cpusim.HaswellEP().Frequencies())
	if err != nil {
		return err
	}
	events := eventNames(cal.events)
	rows := make([]trafficRow, len(ds.Rows))
	for i, r := range ds.Rows {
		full := rowSample(r)
		rates := make(map[string]float64, len(events))
		for _, ev := range events {
			rates[ev] = full.Rates[ev]
		}
		rows[i] = trafficRow{freqMHz: r.FreqMHz, voltageV: r.VoltageV, rates: rates, powerW: r.PowerW}
	}

	if st.daemon, err = startDaemon(b.daemon, st.modelPath, st.dir, st.clients[0]); err != nil {
		return err
	}

	g := newGenerator(b.seed, rows, events, modelName)
	alphas := [sessionAlphas]float64{1, 0.5, 0.3}
	nInteractive := cycles * interactivePerSlice(b)
	for w := 0; w < connections; w++ {
		// Each worker has bulkPerKind bulk sessions and one interactive
		// session of every client kind; frozen sessions take the alphas
		// in turn (refit sessions run with alpha 1).
		st.bulk[w], st.interactive[w] = nil, nil
		for i := 0; i < bulkPerKind; i++ {
			for j, k := range clientKinds {
				s, err := g.session(fmt.Sprintf("b%d-%s-%d", w, kindNames[k], i), k, alphas[(i+j)%sessionAlphas],
					bulkBatches, minBatch, maxBatch, true)
				if err != nil {
					return err
				}
				st.bulk[w] = append(st.bulk[w], s)
			}
		}
		for i, k := range clientKinds {
			n := (nInteractive + len(clientKinds) - 1 - i) / len(clientKinds)
			s, err := g.session(fmt.Sprintf("i%d-%s", w, kindNames[k]), k, alphas[i%sessionAlphas], n, 1, 1, false)
			if err != nil {
				return err
			}
			st.interactive[w] = append(st.interactive[w], s)
		}
	}
	st.predict, st.predictRows = nil, nil
	for i := 0; i < predictBodies; i++ {
		body, rows, err := g.predictBody()
		if err != nil {
			return err
		}
		st.predict = append(st.predict, body)
		st.predictRows = append(st.predictRows, rows)
	}
	st.gen = g
	return nil
}

// --- daemon -------------------------------------------------------------

// daemon is a pmcpowerd process started from the tree's binary with its
// default flags except the listen address, the model file, the log
// destination and the flight-recorder dump path.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

func startDaemon(bin, modelPath, dir string, client *http.Client) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, "pmcpowerd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-model", modelPath,
		"-flightrec-dump", filepath.Join(dir, "flightrec.json"))
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting pmcpowerd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("pmcpowerd exited during start-up (log in %s)", logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("pmcpowerd did not become healthy within 20 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the daemon, waits for it to exit (killing it after
// ten seconds) and closes its log.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// cpuTime is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+stt) * 10 * time.Millisecond, nil
}

// vmHWM is the daemon's peak resident set in KiB.
func (d *daemon) vmHWM() (int64, error) { return vmHWM(strconv.Itoa(d.cmd.Process.Pid)) }

// vmHWM is the peak resident set in KiB of process pid ("self" for
// this one).
func vmHWM(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// --- HTTP -----------------------------------------------------------------

// post sends one request and reads the whole response into buf. It
// returns the response's trace id.
func post(c *http.Client, url, ctype string, body []byte, buf *bytes.Buffer) (string, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	tp := strings.Split(resp.Header.Get("Traceparent"), "-")
	if len(tp) != 4 || len(tp[1]) != 32 {
		return "", fmt.Errorf("response without a traceparent header")
	}
	return tp[1], nil
}

var tracePlaceholder = bytes.Repeat([]byte("T"), 32)

// normalize replaces a response's trace id, the one part of a replayed
// response that may differ from the first.
func normalize(body []byte, traceID string) []byte {
	return bytes.ReplaceAll(body, []byte(traceID), tracePlaceholder)
}

// --- bulk ------------------------------------------------------------------

// referenceResult is the reference pass: the first response to every
// bulk batch (round 0) and to every predict body.
type referenceResult struct {
	estimates, predicts, invalid, sessions int
	bulk                                   map[string][][]byte // by session
	predict                                map[int][]byte      // by body
}

// runReference sends a fixed amount of traffic before the timed
// phases: round 0 of every bulk session and every predict body once,
// each worker its own sessions and half of the bodies. The oracle
// checks these responses; the timed phases must reproduce them.
func runReference(b *bench, st *serveState) referenceResult {
	p := b.phase("reference")
	res := referenceResult{bulk: map[string][][]byte{}, predict: map[int][]byte{}}
	root := b.tr.start("serve.reference", nil, 0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r referenceResult
			var attempted, failed int64
			var errs []string
			bulk := map[string][][]byte{}
			pred := map[int][]byte{}
			var buf bytes.Buffer
			for _, s := range st.bulk[w] {
				bulk[s.id] = make([][]byte, bulkBatches)
			}
			r.sessions = len(st.bulk[w])
			for bi := 0; bi < bulkBatches; bi++ {
				for _, s := range st.bulk[w] {
					n := len(s.lines[bi])
					attempted += int64(n)
					r.estimates++
					r.invalid += n - s.valid(bi)
					url := fmt.Sprintf("%s/v1/estimate?session=%s-r0&%s", st.daemon.base, s.id, s.query)
					tid, err := post(st.clients[w], url, "application/x-ndjson", s.bodies[bi], &buf)
					if err != nil {
						failed += int64(n)
						errs = append(errs, fmt.Sprintf("reference %s batch %d: %v", s.id, bi, err))
						continue
					}
					bulk[s.id][bi] = normalize(buf.Bytes(), tid)
				}
			}
			for bi := w; bi < len(st.predict); bi += connections {
				attempted += predictRows
				r.predicts++
				tid, err := post(st.clients[w], st.daemon.base+"/v1/predict", "application/json", st.predict[bi], &buf)
				if err != nil {
					failed += predictRows
					errs = append(errs, fmt.Sprintf("reference predict body %d: %v", bi, err))
					continue
				}
				pred[bi] = normalize(buf.Bytes(), tid)
			}
			mu.Lock()
			defer mu.Unlock()
			p.attempted += attempted
			p.failed += failed
			for _, e := range errs {
				b.fail("%s", e)
			}
			for k, v := range bulk {
				res.bulk[k] = v
			}
			for k, v := range pred {
				res.predict[k] = v
			}
			res.estimates += r.estimates
			res.predicts += r.predicts
			res.invalid += r.invalid
			res.sessions += r.sessions
		}(w)
	}
	wg.Wait()
	root.end()
	return res
}

type bulkResult struct {
	requests, accepted, invalid, sessions, rounds int
	cpu                                           time.Duration
	rate                                          windowRates
	cursor                                        [connections]bulkCursor
}

// bulkCursor is where a bulk worker resumes in the next cycle.
type bulkCursor struct {
	round, batch, session int
	exhausted             bool
}

// runBulk runs one bulk slice. It is a closed loop: each worker replays
// its sessions' batches round after round from round 1, each round
// under fresh session ids, resuming where its last slice stopped.
// Every response must reproduce the reference pass's round 0 byte for
// byte.
func runBulk(b *bench, st *serveState, ref referenceResult, res *bulkResult) {
	p := b.phase("bulk")
	cpu0, err := st.daemon.cpuTime()
	if err != nil {
		b.fail("reading daemon CPU time: %v", err)
	}
	root := b.tr.start("serve.bulk", nil, 0)
	start := time.Now()
	end := start.Add(b.slice(bulkShare))
	var done []completion
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r bulkResult
			var attempted, failed int64
			var errs []string
			var comp []completion
			var buf bytes.Buffer
			sessions := st.bulk[w]
			c := res.cursor[w]
			if c.round == 0 {
				c.round = 1
			}
			for !c.exhausted && time.Now().Before(end) {
				s, round, bi := sessions[c.session], c.round, c.batch
				if bi == 0 {
					r.sessions++
				}
				n := len(s.lines[bi])
				attempted += int64(n)
				url := fmt.Sprintf("%s/v1/estimate?session=%s-r%d&%s", st.daemon.base, s.id, round, s.query)
				sp := b.tr.start("serve.bulk.request", root, w+1)
				tid, err := post(st.clients[w], url, "application/x-ndjson", s.bodies[bi], &buf)
				sp.end()
				r.requests++
				if c.session++; c.session == len(sessions) {
					c.session = 0
					if c.batch++; c.batch == bulkBatches {
						c.batch = 0
						r.rounds = max(r.rounds, c.round)
						c.round++
						c.exhausted = c.round == maxBulkRounds
					}
				}
				if err != nil {
					failed += int64(n)
					errs = append(errs, fmt.Sprintf("bulk %s round %d batch %d: %v", s.id, round, bi, err))
					continue
				}
				if first := ref.bulk[s.id][bi]; first != nil && !bytes.Equal(normalize(buf.Bytes(), tid), first) {
					errs = append(errs, fmt.Sprintf("bulk %s round %d batch %d differs from round 0", s.id, round, bi))
				}
				r.accepted += s.valid(bi)
				comp = append(comp, completion{time.Since(start), s.valid(bi)})
				r.invalid += n - s.valid(bi)
			}
			mu.Lock()
			defer mu.Unlock()
			res.cursor[w] = c
			p.attempted += attempted
			p.failed += failed
			for _, e := range errs {
				b.fail("%s", e)
			}
			res.requests += r.requests
			res.accepted += r.accepted
			res.invalid += r.invalid
			res.sessions += r.sessions
			res.rounds = max(res.rounds, r.rounds)
			done = append(done, comp...)
		}(w)
	}
	wg.Wait()
	res.rate.add(done, time.Since(start))
	root.end()
	cpu1, err := st.daemon.cpuTime()
	if err != nil {
		b.fail("reading daemon CPU time: %v", err)
	}
	res.cpu += cpu1 - cpu0
}

// completion is one finished request: when it completed (since the
// slice start) and how many rows it delivered.
type completion struct {
	at   time.Duration
	rows int
}

// rateWindow is the width of the windows a closed-loop phase's
// throughput is measured over.
const rateWindow = 100 * time.Millisecond

// windowRates collects a closed-loop phase's throughput over its
// slices: the rows per second of every full window of every slice, and
// the totals.
type windowRates struct {
	rates   []float64
	rows    int
	elapsed time.Duration
}

// add records one slice.
func (w *windowRates) add(done []completion, elapsed time.Duration) {
	n := int(elapsed / rateWindow)
	counts := make([]float64, n)
	for _, c := range done {
		w.rows += c.rows
		if i := int(c.at / rateWindow); i < n {
			counts[i] += float64(c.rows)
		}
	}
	for _, c := range counts {
		w.rates = append(w.rates, c/rateWindow.Seconds())
	}
	w.elapsed += elapsed
}

// value is the median over the windows of the rows completed per
// second, so that a stall of the shared machine moves it less than it
// moves the total; with no full window, the overall rate.
func (w *windowRates) value() float64 {
	if len(w.rates) == 0 {
		return float64(w.rows) / w.elapsed.Seconds()
	}
	return median(w.rates)
}

func (w *windowRates) summary() string {
	return fmt.Sprintf("%d windows, p10 %.0f p50 %.0f p90 %.0f rows/s", len(w.rates),
		quantile(w.rates, 0.1), quantile(w.rates, 0.5), quantile(w.rates, 0.9))
}

// --- predict ---------------------------------------------------------------

type predictResult struct {
	requests, rows int
	rate           windowRates
	next           [connections]int // each worker's next body
}

// runPredict runs one predict slice: a closed loop of /v1/predict
// batches over the body pool, each worker resuming where its last slice
// stopped. Every response must match the reference pass's answer to
// its body.
func runPredict(b *bench, st *serveState, ref referenceResult, res *predictResult) {
	p := b.phase("predict")
	root := b.tr.start("serve.predict", nil, 0)
	start := time.Now()
	end := start.Add(b.slice(predictShare))
	var done []completion
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var requests, rows int
			var attempted, failed int64
			var comp []completion
			var errs []string
			var buf bytes.Buffer
			i := res.next[w]
			if i == 0 {
				i = w
			}
			for ; time.Now().Before(end); i += connections {
				bi := i % len(st.predict)
				attempted += predictRows
				sp := b.tr.start("serve.predict.request", root, w+1)
				tid, err := post(st.clients[w], st.daemon.base+"/v1/predict", "application/json", st.predict[bi], &buf)
				sp.end()
				requests++
				if err != nil {
					failed += predictRows
					errs = append(errs, fmt.Sprintf("predict body %d: %v", bi, err))
					continue
				}
				if first := ref.predict[bi]; first != nil && !bytes.Equal(normalize(buf.Bytes(), tid), first) {
					errs = append(errs, fmt.Sprintf("predict body %d: response differs from the reference pass's", bi))
				}
				rows += predictRows
				comp = append(comp, completion{time.Since(start), predictRows})
			}
			mu.Lock()
			defer mu.Unlock()
			res.next[w] = i
			p.attempted += attempted
			p.failed += failed
			for _, e := range errs {
				b.fail("%s", e)
			}
			res.requests += requests
			res.rows += rows
			done = append(done, comp...)
		}(w)
	}
	wg.Wait()
	res.rate.add(done, time.Since(start))
	root.end()
}

// --- interactive -----------------------------------------------------------

type interactiveResult struct {
	requests, sessions int
	latencyMS, lateMS  []float64
	responses          map[string][][]byte
	next               [connections]int // each worker's next request
}

// interactiveInterval is the time between one worker's requests.
const interactiveInterval = time.Second * connections / interactiveRate

// interactivePerSlice is how many requests each worker sends in one
// interactive slice.
func interactivePerSlice(b *bench) int {
	return int(b.slice(interactiveShare) / interactiveInterval)
}

// runInteractive runs one interactive slice: an open loop of
// single-sample requests due on a fixed schedule from the slice start,
// each worker sending its next interactivePerSlice requests in order;
// latency runs from the due time to the last response byte, so a stall
// also counts against the requests queued behind it.
func runInteractive(b *bench, st *serveState, res *interactiveResult) {
	p := b.phase("interactive")
	root := b.tr.start("serve.interactive", nil, 0)
	start := time.Now().Add(5 * time.Millisecond)
	perSlice := interactivePerSlice(b)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sessions := st.interactive[w]
			var lat, late []float64
			var attempted, failed int64
			var errs []string
			resp := map[string][][]byte{}
			var buf bytes.Buffer
			first := start.Add(time.Duration(w) * interactiveInterval / connections)
			i0 := res.next[w]
			for k := 0; k < perSlice; k++ {
				i := i0 + k
				s := sessions[i%len(sessions)]
				bi := i / len(sessions)
				if bi >= len(s.bodies) {
					break
				}
				due := first.Add(time.Duration(k) * interactiveInterval)
				waitUntil(due)
				late = append(late, float64(time.Since(due).Nanoseconds())/1e6)
				attempted++
				url := fmt.Sprintf("%s/v1/estimate?session=%s&%s", st.daemon.base, s.id, s.query)
				sp := b.tr.start("serve.interactive.request", root, w+1)
				tid, err := post(st.clients[w], url, "application/x-ndjson", s.bodies[bi], &buf)
				sp.end()
				lat = append(lat, float64(time.Since(due).Nanoseconds())/1e6)
				if err != nil {
					failed++
					errs = append(errs, fmt.Sprintf("interactive %s request %d: %v", s.id, bi, err))
					continue
				}
				resp[s.id] = append(resp[s.id], normalize(buf.Bytes(), tid))
			}
			mu.Lock()
			defer mu.Unlock()
			if i0 == 0 {
				res.sessions += len(sessions)
			}
			res.next[w] = i0 + perSlice
			p.attempted += attempted
			p.failed += failed
			for _, e := range errs {
				b.fail("%s", e)
			}
			for k, v := range resp {
				res.responses[k] = append(res.responses[k], v...)
			}
			res.latencyMS = append(res.latencyMS, lat...)
			res.lateMS = append(res.lateMS, late...)
			res.requests += int(attempted)
		}(w)
	}
	wg.Wait()
	root.end()
}

// waitUntil sleeps until shortly before t and spins for the rest: a
// timer wake-up on this kind of machine lands up to a millisecond
// late, which would otherwise be charged to the daemon's latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// --- checking ----------------------------------------------------------------

// respRow is one NDJSON row of an estimate response.
type respRow struct {
	TimeNs       uint64  `json:"time_ns"`
	InstantW     float64 `json:"instant_w"`
	SmoothedW    float64 `json:"smoothed_w"`
	TotalJ       float64 `json:"total_j"`
	Samples      uint64  `json:"samples"`
	ModelVersion uint64  `json:"model_version"`
	Error        string  `json:"error"`
	Reason       string  `json:"reason"`
}

// checker compares collected responses with the oracle.
type checker struct {
	b       *bench
	model   *oracle.Model
	apeSum  float64 // labelled rows: |estimate − measured| / measured
	apeN    int
	checked [numKinds]int
	refitCk int // refit rows checked against a windowed fit
	// refit checkpoints whose window was rank deficient
	refitSingular int
}

// session replays one session's accepted lines through the oracle and
// checks every response row of its round-0 batches.
func (c *checker) session(s *session, responses [][]byte) {
	stream := oracle.Stream{Alpha: s.alpha}
	win := &oracle.Window{Size: refitWindow}
	labelled := 0
	fitted := 0 // checkpoints whose window had a unique fit
	var version uint64
	cols := len(c.model.Events) + 3
	for bi, body := range responses {
		if body == nil {
			return // the batch was not sent or failed; later state is unknown
		}
		rows := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		lines := s.lines[bi]
		if len(rows) != len(lines) {
			c.b.fail("%s batch %d: %d response rows for %d lines", s.id, bi, len(rows), len(lines))
			return
		}
		for i, l := range lines {
			var got respRow
			if err := json.Unmarshal(rows[i], &got); err != nil {
				c.b.fail("%s batch %d row %d: %v", s.id, bi, i, err)
				return
			}
			where := fmt.Sprintf("%s batch %d row %d (%s)", s.id, bi, i, kindNames[l.kind])
			if l.kind == kindInvalid {
				if got.Error == "" || got.Reason != l.reason {
					c.b.fail("%s: want an error row with reason %s, got %s", where, l.reason, rows[i])
				}
				c.checked[kindInvalid]++
				continue
			}
			if got.Error != "" || got.TimeNs != l.timeNs {
				c.b.fail("%s: want an estimate at %d, got %s", where, l.timeNs, rows[i])
				return
			}
			gotEst := oracle.Estimate{InstantW: got.InstantW, SmoothedW: got.SmoothedW, TotalJ: got.TotalJ, Samples: got.Samples}
			if !s.refit {
				want := stream.Push(l.timeNs, c.model.Power(l.sample))
				if err := oracle.CheckEstimate(gotEst, want, oracle.EstimateTol); err != nil {
					c.b.fail("%s: %v", where, err)
					return
				}
				if got.ModelVersion != 0 {
					c.b.fail("%s: frozen session reports model version %d", where, got.ModelVersion)
				}
			} else {
				design := oracle.DesignRow(c.model.Events, l.sample)
				switch {
				case labelled < cols:
					// Fewer rows than coefficients: the frozen model. (From
					// cols rows on, the session serves the window's fit, even
					// while that fit is an exact interpolation.)
					if e := oracle.RelErr(got.InstantW, c.model.Power(l.sample)); !(e <= oracle.EstimateTol) {
						c.b.fail("%s: before the first refit the estimate %v is not the frozen model's", where, got.InstantW)
					}
				case labelled > cols && labelled%checkEvery == 0:
					if c.refitCheckpoint(where, win, design, got, version, c.model.Power(l.sample)) {
						fitted++
					}
				}
				if got.ModelVersion < version {
					c.b.fail("%s: model version fell from %d to %d", where, version, got.ModelVersion)
				}
				version = got.ModelVersion
				// EWMA and energy over the estimates the session served.
				want := stream.Push(l.timeNs, got.InstantW)
				if err := oracle.CheckEstimate(gotEst, want, oracle.EstimateTol); err != nil {
					c.b.fail("%s: %v", where, err)
					return
				}
				win.Add(design, l.powerW)
				labelled++
			}
			if l.kind == kindLabelled || l.kind == kindRefit {
				d := got.InstantW - l.powerW
				if d < 0 {
					d = -d
				}
				c.apeSum += d / l.powerW
				c.apeN++
			}
			c.checked[l.kind]++
		}
	}
	if s.refit && fitted > 0 && version == 0 {
		c.b.fail("%s: model version never rose over %d labelled rows", s.id, labelled)
	}
}

// refitCheckpoint compares a refit row's estimate with the oracle's
// least-squares fit of the session's window before the row: every
// labelled row so far until the window fills, then the last
// refitWindow of them. version is the previous row's model version and
// frozenW the frozen model's estimate of the row. It reports whether
// the window had a unique fit.
func (c *checker) refitCheckpoint(where string, win *oracle.Window, design []float64, got respRow, version uint64, frozenW float64) bool {
	coef, err := win.Fit()
	if err == nil {
		want := oracle.Dot(design, coef)
		if e := oracle.RelErr(got.InstantW, want); !(e <= oracle.RefitTol) {
			c.b.fail("%s: refit estimate %v, windowed least squares %v (relative error %.3g)", where, got.InstantW, want, e)
		}
		c.refitCk++
		return true
	}
	if !errors.Is(err, oracle.ErrSingular) {
		c.b.fail("%s: oracle window fit: %v", where, err)
		return false
	}
	// An event read 0 on every row of the window, so the window has no
	// unique fit. The session either keeps its previous fit, as
	// core.Refitter does when it finds the window rank deficient, or
	// installs one whose prediction for a row that also reads 0 there
	// is unique.
	c.refitSingular++
	switch {
	case got.ModelVersion == version && version == 0:
		if e := oracle.RelErr(got.InstantW, frozenW); !(e <= oracle.EstimateTol) {
			c.b.fail("%s: no refit installed, but the estimate %v is not the frozen model's %v", where, got.InstantW, frozenW)
		}
	case got.ModelVersion == version:
		// The previous fit, which the oracle does not track.
	default:
		want, ok, err := win.PredictZeroColumns(design)
		if err != nil {
			c.b.fail("%s: oracle fit without the zero columns: %v", where, err)
		} else if e := oracle.RelErr(got.InstantW, want); ok && !(e <= oracle.RefitTol) {
			c.b.fail("%s: refit estimate %v on a window with zero columns, least squares without them %v (relative error %.3g)",
				where, got.InstantW, want, e)
		}
	}
	return false
}

// predict checks the first response to every predict body.
func (c *checker) predict(st *serveState, responses map[int][]byte) {
	for bi, body := range responses {
		var got struct {
			Model string    `json:"model"`
			N     int       `json:"n"`
			Watts []float64 `json:"watts"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			c.b.fail("predict body %d: %v", bi, err)
			continue
		}
		rows := st.predictRows[bi]
		if got.Model != modelName || got.N != len(rows) || len(got.Watts) != len(rows) {
			c.b.fail("predict body %d: model %q, n %d, %d watts for %d rows", bi, got.Model, got.N, len(got.Watts), len(rows))
			continue
		}
		for i, r := range rows {
			if e := oracle.RelErr(got.Watts[i], c.model.Power(r.sample())); !(e <= oracle.EstimateTol) {
				c.b.fail("predict body %d row %d: %v W, oracle %v W", bi, i, got.Watts[i], c.model.Power(r.sample()))
				break
			}
		}
	}
}

func (c *checker) report() {
	if c.apeN == 0 {
		c.b.fail("no labelled rows were checked")
		return
	}
	mape := 100 * c.apeSum / float64(c.apeN)
	if !(mape < 15) {
		c.b.fail("MAPE of labelled rows %.2f%% is not below 15%%", mape)
	}
	c.b.note("oracle-checked rows: null %d, omitted %d, labelled %d, refit %d (%d at windowed-fit checkpoints, %d more on rank-deficient windows), invalid %d; labelled MAPE %.2f%%",
		c.checked[kindNull], c.checked[kindOmitted], c.checked[kindLabelled], c.checked[kindRefit], c.refitCk,
		c.refitSingular, c.checked[kindInvalid], mape)
}

// --- daemon counters ---------------------------------------------------------

// scrape reads the daemon's /metrics counters (over the first worker's
// connection, between phases).
func (st *serveState) scrape() (map[string]float64, error) {
	resp, err := st.clients[0].Get(st.daemon.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		t := sc.Text()
		if t == "" || t[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(t, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(t[i+1:], 64)
		if err == nil {
			out[t[:i]] = v
		}
	}
	return out, sc.Err()
}

// counter sums the series of a metric whose labels contain match.
func counter(m map[string]float64, name, match string) float64 {
	var sum float64
	for k, v := range m {
		if (k == name || strings.HasPrefix(k, name+"{")) && strings.Contains(k, match) {
			sum += v
		}
	}
	return sum
}

func requestsOf(m map[string]float64, path string) float64 {
	return counter(m, "pmcpowerd_requests_total", `path="`+path+`"`)
}

// checkCounters checks that a phase's traffic took the intended paths:
// in d, the deltas of the daemon's counters over the phase, it counted
// every estimate and predict request, rejected exactly the invalid
// rows, and created one session per session used.
func checkCounters(b *bench, phase string, d map[string]float64, estimates, predicts, invalid, sessions int) {
	for path, sent := range map[string]int{"/v1/estimate": estimates, "/v1/predict": predicts} {
		if n := requestsOf(d, path); n != float64(sent) {
			b.fail("%s: daemon counted %v %s requests, %d sent", phase, n, path, sent)
		}
	}
	if n := counter(d, "pmcpowerd_samples_rejected_total", ""); n != float64(invalid) {
		b.fail("%s: daemon rejected %v rows, %d invalid rows sent", phase, n, invalid)
	}
	if n := counter(d, "pmcpowerd_sessions_created_total", ""); n != float64(sessions) {
		b.fail("%s: daemon created %v sessions, %d used", phase, n, sessions)
	}
}

// counterDeltas records the per-phase deltas of the daemon's counters.
func counterDeltas(b *bench, d map[string]map[string]float64) {
	b.set("serve.requests.bulk", requestsOf(d["bulk"], "/v1/estimate"))
	b.set("serve.requests.predict", requestsOf(d["predict"], "/v1/predict"))
	b.set("serve.requests.interactive", requestsOf(d["interactive"], "/v1/estimate"))
	b.set("serve.rejected.bulk", counter(d["bulk"], "pmcpowerd_samples_rejected_total", ""))
	b.set("serve.refits.bulk", counter(d["bulk"], "pmcpowerd_refits_total", ""))
	b.set("serve.sessions_created.bulk", counter(d["bulk"], "pmcpowerd_sessions_created_total", ""))
	b.set("serve.sessions_created.interactive", counter(d["interactive"], "pmcpowerd_sessions_created_total", ""))
}
