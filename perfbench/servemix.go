package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lppart/internal/apps"
	"lppart/internal/memostore"
	"lppart/internal/serve"
	"lppart/internal/serve/client"
)

// serve_mix shape: an open loop at a fixed rate against a 2-worker
// server. The client does not cap its connections: capped at two HTTP/1.1
// connections, hits queued behind slow misses, and p99_ms spread by 28%
// across ten seeds on a 2-vCPU host; uncapped, hits time the hit path and
// misses the compute path.
const (
	serveRate    = 60 // requests per second
	serveIdle    = 16 // idle connections kept for reuse, above the usual in-flight count
	serveWorkers = 2
	// lateLimit voids a run whose generator dispatched requests this late
	// (p99): its latencies no longer describe the schedule it claims.
	lateLimit = 50 * time.Millisecond
	// freshGroup is the stratum of fresh keys: per group, three
	// partitions and one sweep per application, in seeded order, so every
	// seed offers the same mix of work.
	freshGroup = 24
)

// keySpec is one distinct request of the stream.
type keySpec struct {
	id    int
	app   string
	part  *serve.PartitionRequest // nil for a sweep
	sweep *serve.SweepRequest
	// deflt marks a default-knob partition, whose Table 1 rows must match
	// golden.json.
	deflt bool
}

// slot is one (application, endpoint) cell of the stream's mix.
type slot struct {
	app   string
	sweep bool
}

// slots deals (application, endpoint) cells in seeded order, stratified so
// every seed offers the same mix of work: each round of six cells visits
// every application once (in a seeded order), and each application's
// visits cycle through three partitions and one sweep (in a seeded order).
// Seeds therefore differ in order, knobs and repeat targets, not in how
// much of each kind of work arrives or how evenly it is spread.
type slots struct {
	rng   *rand.Rand
	round []string
	kinds map[string][]bool
}

func (s *slots) next() slot {
	if len(s.round) == 0 {
		for _, a := range apps.All() {
			s.round = append(s.round, a.Name)
		}
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	app := s.round[0]
	s.round = s.round[1:]
	if len(s.kinds[app]) == 0 {
		k := []bool{false, false, false, true}
		s.rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
		s.kinds[app] = k
	}
	sweep := s.kinds[app][0]
	s.kinds[app] = s.kinds[app][1:]
	return slot{app, sweep}
}

// genStream pre-generates n requests from the seed: every fourth request
// carries a fresh key, the others repeat a uniformly chosen key of their
// cell already sent (a cache read, or a coalesced wait while it is still
// in flight).
func genStream(seed int64, n int) []*keySpec {
	rng := rand.New(rand.NewSource(seed))
	freshCells := &slots{rng: rng, kinds: map[string][]bool{}}
	repeatCells := &slots{rng: rng, kinds: map[string][]bool{}}
	var keys []*keySpec
	byCell := map[slot][]*keySpec{}
	usedGEQ := map[string]bool{}
	usedGrid := map[string]bool{}
	fresh := func() *keySpec {
		c := freshCells.next()
		k := &keySpec{id: len(keys), app: c.app}
		switch {
		case !c.sweep && len(byCell[c]) == 0:
			k.part = &serve.PartitionRequest{App: c.app}
			k.deflt = true
		case !c.sweep:
			// A never-used GEQ budget above the default: the same
			// clusters stay viable, so fresh partitions cost what the
			// default one does.
			for {
				g := 16001 + rng.Intn(8000)
				if id := fmt.Sprint(c.app, g); !usedGEQ[id] {
					usedGEQ[id] = true
					k.part = &serve.PartitionRequest{App: c.app, GEQBudget: g}
					break
				}
			}
		default:
			// A never-used geometry grid of fixed size: three set counts,
			// two associativities, one line size.
			sizes := []int{16, 32, 64, 128, 256, 512, 1024}
			assocs := [][]int{{1, 2}, {1, 4}, {2, 4}}
			lines := []int{2, 4, 8}
			for {
				rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
				sets := append([]int(nil), sizes[:3]...)
				sort.Ints(sets)
				sw := &serve.SweepRequest{App: c.app, ISweep: rng.Intn(2) == 1, Sets: sets,
					Assoc: assocs[rng.Intn(len(assocs))], LineWords: lines[rng.Intn(len(lines))]}
				if id := fmt.Sprint(sw.App, sw.ISweep, sw.Sets, sw.Assoc, sw.LineWords); !usedGrid[id] {
					usedGrid[id] = true
					k.sweep = sw
					break
				}
			}
		}
		keys = append(keys, k)
		byCell[c] = append(byCell[c], k)
		return k
	}
	repeat := func() *keySpec {
		c := repeatCells.next()
		// Early in the stream a cell may have no key yet: fall back to the
		// application's other endpoint, then to any key.
		for _, cell := range []slot{c, {c.app, !c.sweep}} {
			if ks := byCell[cell]; len(ks) > 0 {
				return ks[rng.Intn(len(ks))]
			}
		}
		return keys[rng.Intn(len(keys))]
	}
	stream := make([]*keySpec, n)
	for i := range stream {
		if i%4 == 0 {
			stream[i] = fresh()
		} else {
			stream[i] = repeat()
		}
	}
	return stream
}

// captureKey carries a *[]byte through a request context; the capturing
// transport stores the raw response body there, so the benchmark can
// compare bodies byte for byte while the typed client decodes them.
type captureKey struct{}

type captureTransport struct{ base http.RoundTripper }

func (t captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	dst, ok := r.Context().Value(captureKey{}).(*[]byte)
	if !ok {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close() //lint:err the body was read in full; closing cannot lose data
	if err != nil {
		return nil, err
	}
	*dst = raw
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, nil
}

// serveFixture is one measured server: in-process serve.New on a real
// loopback listener with a write-through memostore in a fresh directory.
type serveFixture struct {
	stream []*keySpec
	url    string
	srv    *serve.Server
	hs     *http.Server
	store  *memostore.Store
	dir    string
	tr     *http.Transport
	cl     *client.Client
	served chan error
}

// startServer starts a server over a fresh store directory.
func startServer(o *options) (*serveFixture, error) {
	dir, err := runDir(o, "serve-store")
	if err != nil {
		return nil, err
	}
	st, err := memostore.Open(dir, memostore.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close() //lint:err the listen error is the one reported
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: serveWorkers, Store: st})
	fx := &serveFixture{
		url: "http://" + ln.Addr().String(), srv: srv, hs: &http.Server{Handler: srv.Handler()},
		store: st, dir: dir, served: make(chan error, 1),
		tr: &http.Transport{MaxIdleConnsPerHost: serveIdle},
	}
	go func() { fx.served <- fx.hs.Serve(ln) }()
	fx.cl = client.New(fx.url, client.WithHTTPClient(&http.Client{Transport: captureTransport{fx.tr}}))
	if !fx.cl.Healthy(context.Background()) {
		fx.close()
		return nil, fmt.Errorf("server at %s is not healthy", fx.url)
	}
	return fx, nil
}

// close stops the server and any computation still running, waits for
// its serve loop, and removes the store.
func (fx *serveFixture) close() {
	fx.hs.Close() //lint:err the serve loop's exit error is checked below
	fx.srv.Abort()
	if err := <-fx.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	fx.tr.CloseIdleConnections()
	if err := fx.store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: store:", err)
	}
	removeRunDir(fx.dir)
}

// setupServe generates the stream, warms the code paths on a throwaway
// server (one default partition and one default sweep per application;
// neither the stream's server nor its store sees them) and starts the
// measured server with an empty cache and store.
func setupServe(o *options, n int) (*serveFixture, error) {
	stream := genStream(o.seed, n)
	warm, err := startServer(o)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, a := range apps.All() {
		if _, err = warm.cl.Partition(ctx, &serve.PartitionRequest{App: a.Name}); err != nil {
			break
		}
		if _, err = warm.cl.Sweep(ctx, &serve.SweepRequest{App: a.Name}); err != nil {
			break
		}
	}
	warm.close()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	fx, err := startServer(o)
	if err != nil {
		return nil, err
	}
	fx.stream = stream
	return fx, nil
}

// reply is one answered (or failed) request.
type reply struct {
	key      *keySpec
	due      time.Duration // since the loop started
	late     time.Duration // dispatch minus due
	lat      time.Duration // completion minus due
	answered bool          // 200 with a decodable body
	ok       bool          // answered, for the right app
	hit      bool
	retries  int
	digest   string // SHA-256 of the raw body
	table1OK bool   // default-knob partitions: Table 1 matches golden
}

// openLoop sends the stream on its schedule, each request from its own
// goroutine, and waits for every reply.
func openLoop(fx *serveFixture, want golden, tr *tracer) ([]reply, time.Duration, uint64) {
	interval := time.Second / serveRate
	out := make([]reply, len(fx.stream))
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, k := range fx.stream {
		t := tr
		if !tracedBlock(i) {
			t = nil
		}
		due := time.Duration(i) * interval
		time.Sleep(time.Until(start.Add(due)))
		late := time.Since(start) - due
		wg.Add(1)
		go func(i int, k *keySpec) {
			defer wg.Done()
			out[i] = send(fx, k, want, t, int64(i))
			out[i].due, out[i].late = due, late
			out[i].lat = time.Since(start) - due
		}(i, k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return out, elapsed, m1.Mallocs - m0.Mallocs
}

// tracedBlock reports whether request i is in a traced block of a traced
// run: blocks of eight requests (two fresh keys each) alternate.
func tracedBlock(i int) bool { return (i/8)%2 == 1 }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// send issues one request through the typed client and checks what it can
// check on its own; cross-request body identity is checked afterwards.
func send(fx *serveFixture, k *keySpec, want golden, tr *tracer, op int64) reply {
	r := reply{key: k}
	var raw []byte
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), captureKey{}, &raw), time.Minute)
	defer cancel()
	name := "client.partition"
	if k.sweep != nil {
		name = "client.sweep"
	}
	id := tr.begin(name, op, -1)
	var app string
	var err error
	if k.sweep != nil {
		var res *client.Result[*serve.SweepResponse]
		if res, err = fx.cl.Sweep(ctx, k.sweep); err == nil {
			app, r.hit, r.retries = res.Value.App, res.CacheHit, res.Attempts-1
		}
	} else {
		var res *client.Result[*serve.PartitionResponse]
		if res, err = fx.cl.Partition(ctx, k.part); err == nil {
			app, r.hit, r.retries = res.Value.App, res.CacheHit, res.Attempts-1
			if k.deflt {
				sum := sha256.Sum256([]byte(res.Value.Table1))
				r.table1OK = hex.EncodeToString(sum[:]) == want[k.app]
			}
		}
	}
	tr.end(id)
	if err != nil {
		fmt.Printf("  request %d (%s): %v\n", op, k.app, err)
		return r
	}
	sum := sha256.Sum256(raw)
	r.digest = hex.EncodeToString(sum[:])
	r.answered = true
	r.ok = app == k.app
	return r
}

// runServe is the serve_mix workload.
func runServe(o *options) (*outcome, error) {
	want, err := loadGolden(o)
	if err != nil {
		return nil, err
	}
	n := int(o.run.Seconds() * serveRate)
	fx, setupS, err := repeatSetup(func() (*serveFixture, error) { return setupServe(o, n) },
		func(fx *serveFixture) { fx.close() })
	if err != nil {
		return nil, err
	}
	defer fx.close()
	res := &outcome{}
	if !o.trace {
		replies, elapsed, mallocs := openLoop(fx, want, nil)
		st := judge(res, replies, want)
		st.elapsed, st.mallocs = elapsed, mallocs
		endToEnd(res, st.loopStats, setupS)
		return res, nil
	}

	// Traced run: client spans on alternate blocks of the stream, and
	// /metrics scraped throughout.
	tr := newTracer()
	sc := startScraper(fx.url)
	replies, _, _ := openLoop(fx, want, tr)
	scrape := sc.stop()
	st := judge(res, replies, want)
	res.attempted = int64(len(st.lat))
	res.failed = res.attempted - st.ok

	vals := map[string]float64{}
	var hitLat, missLat []float64
	var retries int64
	for _, r := range replies {
		retries += int64(r.retries)
		if r.hit {
			hitLat = append(hitLat, ms(r.lat))
		} else {
			missLat = append(missLat, ms(r.lat))
		}
	}
	vals["serve.hit_p50_ms"] = quantile(hitLat, 0.5)
	vals["serve.miss_p50_ms"] = quantile(missLat, 0.5)
	vals["serve.miss_p99_ms"] = quantile(missLat, 0.99)
	vals["client.retries"] = float64(retries)
	vals["gen.late_p99_ms"] = st.lateP99
	m := scrape.last
	hits, misses := m[`lppartd_cache_ops_total{op="hit"}`], m[`lppartd_cache_ops_total{op="miss"}`]
	vals["serve.cache_hit_frac"] = hits / (hits + misses)
	vals["serve.cache_evictions"] = m[`lppartd_cache_ops_total{op="evict"}`]
	var total, shed float64
	for _, ep := range []string{"partition", "sweep"} {
		for _, oc := range []string{"ok", "cache_hit", "shed_queue", "shed_drain", "deadline", "bad_request", "error"} {
			v := m[fmt.Sprintf(`lppartd_requests_total{endpoint=%q,outcome=%q}`, ep, oc)]
			total += v
			if strings.HasPrefix(oc, "shed") {
				shed += v
			}
		}
		sum, cnt := m[fmt.Sprintf(`lppartd_request_seconds_sum{endpoint=%q}`, ep)], m[fmt.Sprintf(`lppartd_request_seconds_count{endpoint=%q}`, ep)]
		if cnt > 0 {
			vals["serve."+ep+"_mean_ms"] = sum / cnt * 1e3
		}
	}
	vals["serve.shed_frac"] = shed / total
	vals["serve.queue_depth_max"] = scrape.queueMax
	vals["serve.workers_busy_frac"] = scrape.busyMean
	vals["memostore.puts"] = float64(fx.store.Len())
	// Open loop: throughput is fixed by the schedule, so the overhead is
	// the change in median latency between traced and untraced blocks.
	var unLat, trLat []float64
	var unOK, trOK int64
	for i, r := range replies {
		if tracedBlock(i) {
			trLat = append(trLat, ms(r.lat))
			trOK += b2i(r.ok)
		} else {
			unLat = append(unLat, ms(r.lat))
			unOK += b2i(r.ok)
		}
	}
	blockS := float64(len(replies)/2) / serveRate
	vals["trace.untraced_ops_per_s"] = float64(unOK) / blockS
	vals["trace.traced_ops_per_s"] = float64(trOK) / blockS
	if b := quantile(unLat, 0.5); b > 0 {
		vals["trace.overhead_frac"] = quantile(trLat, 0.5)/b - 1
	}
	reportLayers(res, vals)
	return res, tr.write(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}

// serveStats extends loopStats with the generator's lateness.
type serveStats struct {
	*loopStats
	lateP99 float64
}

// judge checks every reply and folds them into loop statistics. A reply
// is correct when it is a 200 for the right application whose body is
// byte-identical to the first body served for its key (and, for
// default-knob partitions, whose Table 1 rows match golden.json). A 200
// for another application counts as a wrong output. Failed, refused and
// wrong replies all miss the latency limit.
func judge(res *outcome, replies []reply, want golden) serveStats {
	first := map[int]*reply{}
	for i := range replies {
		r := &replies[i]
		if !r.ok {
			continue
		}
		if f, ok := first[r.key.id]; !ok || r.lat+r.due < f.lat+f.due {
			first[r.key.id] = r
		}
	}
	st := serveStats{loopStats: &loopStats{}}
	var late []float64
	for i := range replies {
		r := &replies[i]
		st.lat = append(st.lat, ms(r.lat))
		late = append(late, ms(r.late))
		good := r.ok
		if r.answered && !r.ok {
			res.wrong++
			fmt.Printf("  request %d (%s): answered for another application\n", i, r.key.app)
		}
		if good && r.digest != first[r.key.id].digest {
			good = false
			res.wrong++
			fmt.Printf("  request %d (%s): body differs from the first body served for its key\n", i, r.key.app)
		}
		if good && r.key.deflt && !r.table1OK {
			good = false
			res.wrong++
			fmt.Printf("  request %d (%s): default-knob Table 1 rows differ from golden.json\n", i, r.key.app)
		}
		if good {
			st.ok++
			if r.lat <= sloLimit {
				st.inSLO++
			}
		}
	}
	st.lateP99 = quantile(late, 0.99)
	res.notes = append(res.notes, fmt.Sprintf("generator late p99 %.3f ms (limit %v)", st.lateP99, lateLimit))
	if st.lateP99 > ms(lateLimit) {
		res.invalid = fmt.Sprintf("generator fell behind: late p99 %.1f ms > %v", st.lateP99, lateLimit)
	}
	return st
}

// scraper polls /metrics while the traced run goes on.
type scraper struct {
	url  string
	hc   *http.Client
	quit chan struct{}
	done chan scrapeResult
}

type scrapeResult struct {
	last     map[string]float64 // final exposition
	queueMax float64
	busyMean float64
}

func startScraper(url string) *scraper {
	s := &scraper{url: url, hc: &http.Client{Timeout: 5 * time.Second},
		quit: make(chan struct{}), done: make(chan scrapeResult, 1)}
	go s.loop()
	return s
}

func (s *scraper) loop() {
	var r scrapeResult
	var busy []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			r.last = s.scrape()
			r.busyMean = mean(busy)
			s.done <- r
			return
		case <-tick.C:
			m := s.scrape()
			if q := m["lppartd_queue_depth"]; q > r.queueMax {
				r.queueMax = q
			}
			busy = append(busy, m["lppartd_worker_utilization"])
		}
	}
}

// stop ends the polling and returns the final exposition with the
// polled gauges' summary.
func (s *scraper) stop() scrapeResult {
	close(s.quit)
	r := <-s.done
	s.hc.CloseIdleConnections()
	return r
}

// scrape reads one Prometheus-text exposition into series → value.
func (s *scraper) scrape() map[string]float64 {
	out := map[string]float64{}
	resp, err := s.hc.Get(s.url + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
