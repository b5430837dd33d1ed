// Command perfbench is the repository's end-to-end benchmark of the
// capserved verdict-serving stack. It launches real node (and
// coordinator) processes on loopback, drives them from this process in
// a closed loop with at most GOMAXPROCS (≤ 2) keep-alive connections,
// checks every verdict against the source paper's results, and prints
// one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also replays its items in-process through each layer's public
// entry point, records a span per call, and reports per-layer metrics.
//
// Usage (from the repository root; perfbench/run.sh builds both
// binaries first):
//
//	bash perfbench/run.sh --workload cold-enumerate --seed 1 --seconds 40 --trace 0
//
// Workloads: cold-enumerate and cluster-batch, the two BENCHMARK.json
// lists, and hits, the cached single-item path, which it leaves out: on
// a shared two-vCPU host its timings spread too far between runs of the
// same code to judge a change by (see CHANGES.md).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	// The load generator's own collections compete with the servers for
	// the same cores; run them less often. The servers keep their
	// defaults.
	debug.SetGCPercent(400)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "hits | cold-enumerate | cluster-batch")
	seed := fl.Int64("seed", 1, "seed of the generated items")
	seconds := fl.Int("seconds", 10, "sizes the fixed measured item list: about this many seconds of work on the reference machine")
	trace := fl.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	bin := fl.String("capserved", ".bench_build/capserved", "capserved binary under test")
	work := fl.String("workdir", ".bench_build", "directory for warm stores, spans and run records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	b := &bench{spec: spec, name: *wl, seed: *seed, seconds: *seconds,
		trace: *trace == 1, bin: *bin, stdout: stdout}
	res, err := b.run(ctx, *work)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// spec describes one workload's deployment and load shape.
type spec struct {
	nodes       int     // capserved nodes
	coordinator bool    // front the nodes with a coordinator
	warmup      int     // requests in each unmeasured warm-up pass
	rate        float64 // requests per second of the reference machine; sizes the measured list
	queue       int     // every node's -queue; 0 keeps capserved's default
	newSource   func(rng *rand.Rand, dir string, warmup int) (*source, error)
}

var workloads = map[string]spec{
	"hits":           {nodes: 1, warmup: 1500, rate: 11500, newSource: hitsSource},
	"cold-enumerate": {nodes: 1, warmup: 200, rate: 500, newSource: coldSource(coldEnumerateDraw)},
	// The coordinator sends up to 8 misses of each batch to the shards at
	// once, 16 with both connections busy, while a node's default queue
	// (2×GOMAXPROCS = 4) holds 6 with its 2 running analyses. At the
	// default, on a 2-vCPU machine, the nodes shed 21–54 shard requests
	// per 20 s run (5 seeds). Failover to the ring successor saved each
	// one, but a shed at both replicas would fail the item. A queue of 16
	// holds every request the coordinator can have in flight.
	"cluster-batch": {nodes: 3, coordinator: true, warmup: 48, rate: 620, queue: 16, newSource: clusterSource},
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// setups is how many times a run boots its servers; setup_s is the
// median. The last segments boots each serve one consecutive part of
// the measured list, so the measured run spans several server processes
// and its per-slice medians are not set by one process's luck (memory
// layout, thread placement, the host's load while it ran).
const (
	setups   = 7
	segments = 5
)

// bench is one run of one workload.
type bench struct {
	spec    spec
	name    string
	seed    int64
	seconds int // sizes the measured list
	trace   bool
	bin     string
	stdout  io.Writer

	dir     string // per-run scratch directory
	src     *source
	servers []*server // last boot: nodes, then the coordinator if any
	target  string    // base URL the load goes to
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.stdout, format+"\n", args...)
}

func (b *bench) run(ctx context.Context, work string) (*result, error) {
	if _, err := os.Stat(b.bin); err != nil {
		return nil, fmt.Errorf("capserved binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-"+b.name+"-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	defer os.RemoveAll(dir)
	defer func() { stopAll(b.servers) }()

	rng := rand.New(rand.NewSource(b.seed))
	t0 := time.Now()
	if b.src, err = b.spec.newSource(rng, dir, b.spec.warmup); err != nil {
		return nil, fmt.Errorf("generating items: %w", err)
	}
	b.logf("perfbench: %s seed %d: items ready in %.2fs", b.name, b.seed, time.Since(t0).Seconds())

	// Every warm-up pass, then the measured list, continue one seeded
	// stream, so a seed fixes every item a run sends. The measured list
	// holds about -seconds of work on the reference machine (two vCPUs).
	t1 := time.Now()
	warms := make([][]request, setups)
	for k := range warms {
		if warms[k], err = b.src.warm(); err != nil {
			return nil, err
		}
	}
	reqs, err := b.src.take(int(b.spec.rate * float64(b.seconds)))
	if err != nil {
		return nil, err
	}
	b.logf("perfbench: %d measured requests ready in %.2fs", len(reqs), time.Since(t1).Seconds())

	nconn := min(2, runtime.NumCPU())
	var setupS, bootS []float64
	var conns []*conn
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	m := &measurement{nodes: b.spec.nodes, node: counters{}, coord: counters{}, book: newBook()}
	var sent []request
	for k := 0; k < setups; k++ {
		if k > 0 {
			for _, c := range conns {
				c.close()
			}
			stopAll(b.servers)
			b.servers = nil
		}
		start := time.Now()
		if err := b.boot(ctx, k); err != nil {
			return nil, err
		}
		booted := time.Now()
		conns = make([]*conn, nconn)
		for i := range conns {
			conns[i] = newConn(b.target)
		}
		r := &runner{base: b.target, conns: conns, book: newBook()}
		outs, _ := r.run(ctx, warms[k], time.Now(), 0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if r.book.wrong > 0 {
			return nil, fmt.Errorf("wrong verdicts during warm-up: %s", strings.Join(r.book.examples, "; "))
		}
		if fails := sumFailed(outs); fails > 0 {
			return nil, fmt.Errorf("warm-up: %d failed items: %s", fails, strings.Join(r.errs, "; "))
		}
		b.logf("perfbench: setup %d: boot %.3fs warm-up %.3fs", k, booted.Sub(start).Seconds(), time.Since(booted).Seconds())
		setupS = append(setupS, time.Since(start).Seconds())
		bootS = append(bootS, booted.Sub(start).Seconds())

		// The last segments boots each serve one segment of the list.
		if j := k - (setups - segments); j >= 0 {
			part := reqs[j*len(reqs)/segments : (j+1)*len(reqs)/segments]
			if j == 0 {
				m.speed[0] = cpuSpeed()
			}
			n, err := b.measure(ctx, conns, part, m)
			if err != nil {
				return nil, err
			}
			sent = append(sent, part[:n]...)
		}
	}
	m.speed[1] = cpuSpeed()
	m.finish()
	m.guards = b.shapeGuards(m)
	m.setup = summarize(setupS)
	m.boot = summarize(bootS)
	m.shape = shapeOf(sent)

	res := &result{Correct: m.book.wrong == 0 && len(m.guards) == 0, Attempted: m.attempted, Failed: m.failed}
	if b.trace {
		layers, err := b.traced(ctx, m, sent)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.Metrics = layers
	} else {
		res.Metrics = m.endToEnd()
	}
	if err := b.record(work, m, res); err != nil {
		return nil, err
	}
	for _, g := range m.guards {
		b.logf("perfbench: shape guard failed: %s", g)
	}
	for _, e := range m.book.examples {
		b.logf("perfbench: wrong verdict: %s", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b.logf("%-28s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b.logf("%-28s %14.6g %s", "error_rate", m.errorRate(), "ratio")
	return res, nil
}

func sumFailed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		n += o.failed
	}
	return n
}

// boot starts the k-th deployment and sets b.servers and b.target.
func (b *bench) boot(ctx context.Context, k int) error {
	env := []string{fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU())}
	type started struct {
		s   *server
		err error
	}
	ch := make(chan started, b.spec.nodes)
	for i := 0; i < b.spec.nodes; i++ {
		store := b.src.store
		if store == "" {
			store = filepath.Join(b.dir, fmt.Sprintf("setup%d-node%d.store", k, i))
		}
		go func() {
			s, err := startServer(ctx, b.bin, env, "-addr", "127.0.0.1:0", "-warm-store", store, "-queue", strconv.Itoa(b.spec.queue))
			ch <- started{s, err}
		}()
	}
	var errs []error
	var nodes []*server
	for i := 0; i < b.spec.nodes; i++ {
		st := <-ch
		if st.err != nil {
			errs = append(errs, st.err)
		} else {
			nodes = append(nodes, st.s)
		}
	}
	// Order nodes by address so the ring the coordinator builds, and the
	// traced run's copy of it, see one member order.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].base < nodes[j].base })
	b.servers = nodes
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	b.target = nodes[0].base
	if !b.spec.coordinator {
		return nil
	}
	bases := make([]string, len(nodes))
	for i, s := range nodes {
		bases[i] = s.base
	}
	co, err := startServer(ctx, b.bin, env, "-coordinator", "-addr", "127.0.0.1:0",
		"-backends", strings.Join(bases, ","), "-warm-store", filepath.Join(b.dir, fmt.Sprintf("setup%d-coord.store", k)))
	if err != nil {
		return err
	}
	b.servers = append(b.servers, co)
	b.target = co.base
	return nil
}

// measurement is everything the measured segments of a run produced.
type measurement struct {
	requests  int // requests sent
	attempted int // items
	failed    int
	verdicts  int
	wall      time.Duration
	latMs     []float64 // sorted once every segment has run
	cpuS      float64
	slices    []slice
	rssMiB    []float64 // per segment, summed over its servers
	respBytes int64
	setup     summary
	boot      summary
	shape     map[string]float64 // shapeOf the requests sent

	// Counter changes over the measured segments, summed over the
	// capserved nodes and over the coordinator.
	node, coord counters
	nodes       int

	// speed is cpuSpeed just before the first segment and just after
	// the last.
	speed [2]float64

	book   *book // one for the whole run: replies for a key must agree
	errs   []string
	guards []string
}

// measure runs one measured segment over reqs on the current
// deployment, adds what it produced to m, and returns how many of reqs
// it sent.
func (b *bench) measure(ctx context.Context, conns []*conn, reqs []request, m *measurement) (int, error) {
	before, err := b.scrapeAll(ctx)
	if err != nil {
		return 0, err
	}
	cpu0, err := b.cpu()
	if err != nil {
		return 0, err
	}
	var bytes0 int64
	for _, c := range conns {
		bytes0 += c.tr.bytes.Load()
	}
	r := &runner{base: b.target, conns: conns, book: m.book}
	start := time.Now()
	done := make(chan struct{})
	sampled := b.sampleCPU(start, cpu0, done)
	outs, wall := r.run(ctx, reqs, start, time.Duration(stretch*float64(b.seconds)/segments*float64(time.Second)))
	close(done)
	samples := <-sampled
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if samples.err != nil {
		return 0, samples.err
	}
	cpu1, err := b.cpu()
	if err != nil {
		return 0, err
	}
	for _, c := range conns {
		m.respBytes += c.tr.bytes.Load()
	}
	m.respBytes -= bytes0
	after, err := b.scrapeAll(ctx)
	if err != nil {
		return 0, err
	}
	addDeltas(m.node, before[:m.nodes], after[:m.nodes])
	addDeltas(m.coord, before[m.nodes:], after[m.nodes:])
	rss := 0.0
	for _, s := range b.servers {
		v, err := peakRSSMiB(s.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		rss += v
	}
	m.rssMiB = append(m.rssMiB, rss)
	m.cpuS += cpu1 - cpu0
	m.wall += wall
	m.requests += len(outs)
	for _, o := range outs {
		m.verdicts += o.verdicts
		m.failed += o.failed
		m.attempted += o.verdicts + o.failed
		m.latMs = append(m.latMs, float64(o.lat.Nanoseconds())/1e6)
	}
	sl := slicesOf(outs, samples.at)
	if len(sl) == 0 {
		// A segment shorter than one slice is its own only slice.
		sl = slicesOf(outs, []cpuSample{{0, cpu0}, {wall, cpu1}})
	}
	m.slices = append(m.slices, sl...)
	m.errs = append(m.errs, r.errs...)
	return len(outs), nil
}

// finish sorts what the segments collected once they have all run.
func (m *measurement) finish() {
	sort.Float64s(m.latMs)
	if len(m.errs) > 5 {
		m.errs = m.errs[:5]
	}
}

// Each measured segment is cut into slices of sliceLen between samples
// of the servers' CPU time. verdicts_per_s, latency_p50_ms and
// server_cpu_ms_per_verdict are medians over the run's whole slices: a
// few seconds in which a neighbour on a shared host slows the machine
// move a median over the slices less than a total over the run.
const sliceLen = time.Second

// stretch caps each measured segment at stretch × its share of -seconds
// of wall time. The list holds about -seconds of work for the reference
// machine; on a much slower one its rest is not sent, so a run's length
// stays bounded.
const stretch = 1.3

// cpuSample is the servers' summed CPU time at an offset into the run.
type cpuSample struct {
	at  time.Duration
	cpu float64
}

type cpuSamples struct {
	at  []cpuSample
	err error
}

// sampleCPU samples the servers' CPU time every sliceLen from start,
// where it was cpu0, until done is closed, then delivers the samples.
func (b *bench) sampleCPU(start time.Time, cpu0 float64, done <-chan struct{}) <-chan cpuSamples {
	out := make(chan cpuSamples, 1)
	go func() {
		res := cpuSamples{at: []cpuSample{{0, cpu0}}}
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-done:
				out <- res
				return
			case <-t.C:
				c, err := b.cpu()
				if err != nil && res.err == nil {
					res.err = err
				}
				res.at = append(res.at, cpuSample{time.Since(start), c})
			}
		}
	}()
	return out
}

// slice is the part of the measured run between two CPU samples: the
// requests that completed in it and the CPU time the servers spent.
type slice struct {
	dur      time.Duration
	verdicts int
	cpuS     float64
	latMs    []float64 // sorted
}

// slicesOf cuts a run at its CPU samples. A request belongs to the slice
// its reply completed in; requests completing after the last sample are
// left out, with that partial slice.
func slicesOf(outs []outcome, samples []cpuSample) []slice {
	if len(samples) < 2 {
		return nil
	}
	sl := make([]slice, len(samples)-1)
	for k := range sl {
		sl[k].dur = samples[k+1].at - samples[k].at
		sl[k].cpuS = samples[k+1].cpu - samples[k].cpu
	}
	for _, o := range outs {
		// The first sample at or after the reply closes its slice.
		k := sort.Search(len(samples), func(i int) bool { return samples[i].at >= o.end }) - 1
		if k < 0 || k >= len(sl) {
			continue
		}
		sl[k].verdicts += o.verdicts
		sl[k].latMs = append(sl[k].latMs, float64(o.lat.Nanoseconds())/1e6)
	}
	for k := range sl {
		sort.Float64s(sl[k].latMs)
	}
	return sl
}

// perSlice is f over every slice that answered at least one verdict.
func (m *measurement) perSlice(f func(s *slice) float64) summary {
	var vals []float64
	for i := range m.slices {
		if s := &m.slices[i]; s.verdicts > 0 {
			vals = append(vals, f(s))
		}
	}
	return summarize(vals)
}

func sliceRate(s *slice) float64  { return float64(s.verdicts) / s.dur.Seconds() }
func sliceP50(s *slice) float64   { return percentile(s.latMs, 50) }
func sliceCPUMs(s *slice) float64 { return s.cpuS * 1000 / float64(s.verdicts) }

func (b *bench) scrapeAll(ctx context.Context) ([]counters, error) {
	out := make([]counters, len(b.servers))
	for i, s := range b.servers {
		c, err := scrape(ctx, s)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func (b *bench) cpu() (float64, error) {
	t := 0.0
	for _, s := range b.servers {
		c, err := cpuSeconds(s.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// nodeDelta is a counter's change over the measured segments summed
// over the capserved nodes (not the coordinator).
func (m *measurement) nodeDelta(name string) float64 { return m.node[name] }

// coordDelta is a coordinator counter's change over the measured
// segments.
func (m *measurement) coordDelta(name string) float64 { return m.coord[name] }

// shapeGuards checks, from the servers' own counters, that the measured run
// exercised the workload it claims to: a run that broke its shape must
// not report numbers for a different workload.
func (b *bench) shapeGuards(m *measurement) []string {
	var g []string
	want := func(cond bool, format string, args ...any) {
		if !cond {
			g = append(g, fmt.Sprintf(format, args...))
		}
	}
	switch b.name {
	case "hits":
		want(m.nodeDelta("engineRuns") == 0, "hits: engine ran %v times, want 0", m.nodeDelta("engineRuns"))
		want(m.nodeDelta("warmHits") > 0, "hits: no warm-tier hits; the tail never left the LRU")
	case "cold-enumerate":
		want(m.nodeDelta("cacheMisses") == float64(m.attempted), "cold-enumerate: %v cache misses for %d requests", m.nodeDelta("cacheMisses"), m.attempted)
		want(m.nodeDelta("singleflightShared") == 0, "cold-enumerate: %v singleflight shares, want 0", m.nodeDelta("singleflightShared"))
		want(m.nodeDelta("symbolicRounds") == 0, "cold-enumerate: %v symbolic rounds, want 0", m.nodeDelta("symbolicRounds"))
	case "cluster-batch":
		want(m.failed == 0, "cluster-batch: %d of %d items unanswered or failed", m.failed, m.attempted)
		want(m.coordDelta("cacheHits") > 0, "cluster-batch: the coordinator cache served no repeat")
		// The shards answer every miss symbolically.
		want(m.nodeDelta("symbolicFallbacks") == 0, "cluster-batch: %v symbolic fallbacks on the shards, want 0", m.nodeDelta("symbolicFallbacks"))
		want(m.nodeDelta("symbolicRounds") > 0, "cluster-batch: no symbolic rounds on the shards")
	}
	return g
}

// shapeOf measures what a request list actually sends: the share of
// items per endpoint, spelled as expressions, searching for minRounds,
// and repeating a key sent earlier in the list; the share of single-item
// requests asking for binary replies; and the number of distinct keys.
func shapeOf(reqs []request) map[string]float64 {
	var items, singles, binary, expr, search, repeats float64
	paths := map[string]float64{}
	seen := map[string]bool{}
	for _, q := range reqs {
		if !q.batch {
			singles++
			if q.binary {
				binary++
			}
		}
		for i := range q.items {
			it := &q.items[i]
			items++
			paths[it.Path]++
			if it.Expr {
				expr++
			}
			if it.Want.Search {
				search++
			}
			if seen[it.Key] {
				repeats++
			}
			seen[it.Key] = true
		}
	}
	share := func(n, of float64) float64 {
		if of == 0 {
			return 0
		}
		return n / of
	}
	sh := map[string]float64{"items": items, "distinctKeys": float64(len(seen)),
		"expr": share(expr, items), "search": share(search, items), "repeat": share(repeats, items),
		"binarySingles": share(binary, singles)}
	for p, n := range paths {
		sh["path:"+p] = share(n, items)
	}
	return sh
}

func (m *measurement) errorRate() float64 {
	if m.attempted == 0 {
		return 0
	}
	return float64(m.failed) / float64(m.attempted)
}

// tailP is the percentile latency_p99_ms reports: 99 when at least ten
// samples lie beyond it, else 90 (recorded in the run record).
func (m *measurement) tailP() float64 {
	p, ok := tailPercentile(len(m.latMs), 10, 99, 90)
	if !ok {
		return 50
	}
	return p
}

// endToEnd is the -trace 0 metric set.
func (m *measurement) endToEnd() map[string]metric {
	v := float64(max(m.verdicts, 1))
	return map[string]metric{
		"setup_s":                   {m.setup.Median, "s"},
		"verdicts_per_s":            {m.perSlice(sliceRate).Median, "1/s"},
		"latency_p50_ms":            {m.perSlice(sliceP50).Median, "ms"},
		"latency_p99_ms":            {percentile(m.latMs, m.tailP()), "ms"},
		"success_ratio":             {1 - m.errorRate(), "ratio"},
		"server_cpu_ms_per_verdict": {m.perSlice(sliceCPUMs).Median, "ms"},
		"server_rss_mb":             {median(m.rssMiB), "MiB"},
		"resp_bytes_per_verdict":    {float64(m.respBytes) / v, "bytes"},
	}
}

// runRecord is written beside the result: the raw values behind each
// metric, their spread, the sample counts, and what ran where.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	SourceHash string             `json:"sourceSha256"`
	Machine    map[string]any     `json:"machine"`
	CPUSpeed   [2]float64         `json:"cpuSpeedBeforeAfter"`
	Result     *result            `json:"result"`
	Setup      summary            `json:"setupSeconds"`
	Boot       summary            `json:"bootSeconds"`
	Slices     map[string]summary `json:"bySlice"`
	WholeRun   map[string]float64 `json:"wholeRun"`
	Samples    map[string]int     `json:"samples"`
	TailP      float64            `json:"latencyTailPercentile"`
	ErrorRate  float64            `json:"errorRate"`
	Shape      map[string]float64 `json:"shape"`
	Counters   map[string]any     `json:"counterDeltas"`
	Guards     []string           `json:"shapeGuardFailures,omitempty"`
	RSS        summary            `json:"serverRSSMiBBySegment"`
	Wrong      []string           `json:"wrongVerdicts,omitempty"`
	Errors     []string           `json:"failures,omitempty"`
	Layers     map[string]string  `json:"layerMoves,omitempty"`
}

func (b *bench) record(work string, m *measurement, res *result) error {
	deltas := map[string]any{}
	for k, d := range m.node {
		if d != 0 {
			deltas["node."+k] = d
		}
	}
	for k, d := range m.coord {
		if d != 0 {
			deltas["coordinator."+k] = d
		}
	}
	rec := runRecord{
		Workload: b.name, Seed: b.seed, Trace: b.trace,
		SourceHash: sourceHash("."),
		Machine:    machine(), CPUSpeed: m.speed, Result: res, Setup: m.setup, Boot: m.boot,
		Slices: map[string]summary{"verdicts_per_s": m.perSlice(sliceRate), "latency_p50_ms": m.perSlice(sliceP50),
			"server_cpu_ms_per_verdict": m.perSlice(sliceCPUMs)},
		WholeRun: map[string]float64{"verdicts_per_s": float64(m.verdicts) / m.wall.Seconds(), "wall_s": m.wall.Seconds(),
			"latency_p50_ms": percentile(m.latMs, 50), "server_cpu_ms_per_verdict": m.cpuS * 1000 / float64(max(m.verdicts, 1))},
		Samples: map[string]int{"requests": m.requests, "items": m.attempted, "latency": len(m.latMs),
			"setups": setups, "segments": segments, "slices": len(m.slices)},
		TailP: m.tailP(), ErrorRate: m.errorRate(), Shape: m.shape, Counters: deltas,
		RSS: summarize(m.rssMiB), Guards: m.guards, Wrong: m.book.examples, Errors: m.errs,
	}
	if b.trace {
		rec.Layers = layerMoves
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b.logf("record %s", line)
	dir := filepath.Join(work, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", b.name, b.seed, b.trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(line, '\n'), 0o644)
}

// machine is the fingerprint recorded with every run.
func machine() map[string]any {
	m := map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// cpuSpeed runs a fixed integer loop for 200ms and returns its
// iterations per second (millions). The record keeps it from before and
// after the measured run: on a shared host it shows how fast the
// machine itself was running, which moves every timing metric.
func cpuSpeed() float64 {
	start := time.Now()
	x, n := uint64(1), 0
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		n++
	}
	if x == 0 { // keeps the loop from being optimized away
		n++
	}
	return float64(n) * 1e4 / time.Since(start).Seconds() / 1e6
}

// sourceHash digests the Go sources and module files under root (the
// checkout need not be a git repository), skipping dot directories such
// as the build directory.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
