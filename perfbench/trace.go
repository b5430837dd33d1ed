package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	coordattack "repro"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/cluster"
	"repro/internal/serve/wire"
)

// span is one timed call of the traced replay. Spans of one request
// share its root: Parent is the root's ID (0 for the root itself).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory; they are written out at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once, and parts outside the parent are ignored).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		curS, curE := int64(-1), int64(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if a >= b {
				continue
			}
			if a > curE {
				covered += curE - curS
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		covered += curE - curS
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerStats turns the spans into per-name median self times in µs.
func layerStats(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[s.ID])/1e3)
	}
	out := map[string]float64{}
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

// Per-layer metrics: each names the end-to-end metric it should move,
// and on which workload. A layer that does not run on a workload
// reports 0 there.
var layerMoves = map[string]string{
	"serve.request_us":          "latency_p50_ms, verdicts_per_s on cold-enumerate (and hits)",
	"serve.transport_us":        "latency_p50_ms, verdicts_per_s on hits only (run by hand)",
	"serve.decode_us":           "latency_p50_ms on cluster-batch (and hits)",
	"serve.key_us":              "latency_p50_ms on cluster-batch (and hits)",
	"scheme.resolve_us":         "verdicts_per_s on cluster-batch",
	"cache.lru_get_us":          "latency_p50_ms on cluster-batch (and hits)",
	"cache.lru_hit_ratio":       "latency_p50_ms on cluster-batch (and hits)",
	"cache.hits":                "latency_p50_ms on cluster-batch (and hits)",
	"cache.misses":              "verdicts_per_s on cold-enumerate, cluster-batch",
	"cache.warm_hits":           "latency_p50_ms on cluster-batch (and hits)",
	"cache.singleflight_shared": "verdicts_per_s on cold-enumerate, cluster-batch",
	"warm.load_ms":              "setup_s, server_rss_mb on cold-enumerate, cluster-batch (and hits)",
	"warm.records":              "setup_s, server_rss_mb on cold-enumerate, cluster-batch (and hits)",
	"warm.append_us":            "verdicts_per_s on cold-enumerate, cluster-batch",
	"wire.encode_json_us":       "latency_p50_ms on cold-enumerate (and hits)",
	"wire.encode_binary_us":     "latency_p50_ms on cold-enumerate (and hits)",
	"wire.json_bytes":           "resp_bytes_per_verdict on cold-enumerate (and hits)",
	"wire.binary_bytes":         "resp_bytes_per_verdict on cold-enumerate (and hits)",
	"client.frame_decode_us":    "latency_p50_ms on cluster-batch",
	"engine.ms_per_verdict":     "verdicts_per_s, server_cpu_ms_per_verdict on cold-enumerate, cluster-batch",
	"engine.allocs_per_verdict": "verdicts_per_s, server_cpu_ms_per_verdict on cold-enumerate, cluster-batch",
	"engine.bytes_per_verdict":  "server_rss_mb, server_cpu_ms_per_verdict on cold-enumerate, cluster-batch",
	"engine.configs":            "verdicts_per_s on cold-enumerate, cluster-batch",
	"engine.rounds":             "verdicts_per_s on cold-enumerate, cluster-batch",
	"engine.views_interned":     "verdicts_per_s, server_rss_mb on cold-enumerate",
	"engine.symbolic_rounds":    "verdicts_per_s on cluster-batch",
	"engine.symbolic_fallbacks": "verdicts_per_s on cluster-batch",
	"engine.intervals_peak":     "server_rss_mb on cluster-batch",
	"engine.server_wall_ms":     "server_cpu_ms_per_verdict on cold-enumerate, cluster-batch",
	"admission.shed":            "success_ratio on every workload",
	"admission.timeouts":        "success_ratio on every workload",
	"breaker.fast_fails":        "success_ratio on every workload",
	"cluster.route_us":          "latency_p50_ms, verdicts_per_s on cluster-batch",
	"cluster.shard_batch_ms":    "latency_p50_ms, verdicts_per_s on cluster-batch",
	"cluster.coord_overhead_ms": "latency_p50_ms, verdicts_per_s on cluster-batch",
	"cluster.hedges":            "latency_p50_ms, verdicts_per_s on cluster-batch",
	"cluster.failovers":         "latency_p50_ms, verdicts_per_s on cluster-batch",
	"cluster.coord_hit_ratio":   "latency_p50_ms, verdicts_per_s on cluster-batch",
	"trace.request_self_us":     "none: replay glue outside every layer span",
}

// layerUnit gives each per-layer metric its unit, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"), name == "engine.ms_per_verdict":
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_bytes"), name == "engine.bytes_per_verdict":
		return "bytes"
	}
	return "count"
}

// Replay budget: at most replayItems items and replayBudget of wall
// time, whichever ends first.
const (
	replayItems  = 4000
	replayBudget = 4 * time.Second
)

// replay is the state of one traced run.
type replay struct {
	tr      *tracer
	node    http.Handler // in-process node, configured like the real one
	lru     *serve.LRU
	lruGets int
	lruHits int
	store   *serve.VerdictStore // warm.append target
	engine  bool                // run the engine (the workload misses)
	scratch *coordattack.EngineScratch

	engCalls, engAllocs, engBytes                         float64
	engConfigs, engRounds, engViews, engSym, engFallbacks float64
	engPeak                                               float64
	jsonBytes, binBytes                                   []float64
}

// traced replays the run's items through each layer's public entry
// point in one goroutine, in the order a request crosses them, and
// returns the per-layer metrics.
func (b *bench) traced(ctx context.Context, m *measurement, reqs []request) (map[string]metric, error) {
	rp := &replay{tr: newTracer(), lru: serve.NewLRU(1024), engine: b.name != "hits",
		scratch: coordattack.NewEngineScratch()}
	vals := map[string]float64{}

	// Warm tier: load the store the measured node booted from (hits) or
	// wrote (the others).
	src := b.src.store
	if src == "" {
		src = filepath.Join(b.dir, fmt.Sprintf("setup%d-node0.store", setups-1))
	}
	cp := filepath.Join(b.dir, "trace-load.store")
	if err := copyFile(src, cp); err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, entries, err := serve.OpenVerdictStore(cp)
	if err != nil {
		return nil, err
	}
	vals["warm.load_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	vals["warm.records"] = float64(len(entries))
	if err := st.Close(); err != nil {
		return nil, err
	}
	if rp.store, _, err = serve.OpenVerdictStore(filepath.Join(b.dir, "trace-append.store")); err != nil {
		return nil, err
	}
	defer rp.store.Close()

	deadline := time.Now().Add(replayBudget)
	if b.spec.coordinator {
		fresh, err := b.src.take(replayItems / clusterBatch / 8)
		if err != nil {
			return nil, err
		}
		if err := b.replayCluster(ctx, rp, fresh, deadline, vals, m); err != nil {
			return nil, err
		}
	} else {
		// The in-process node boots from a copy of the store the real one
		// booted from, so it serves the same tiers.
		nodeStore := filepath.Join(b.dir, "trace-node.store")
		if b.src.store != "" {
			if err := copyFile(b.src.store, nodeStore); err != nil {
				return nil, err
			}
		}
		node := serve.New(serve.Config{WarmStorePath: nodeStore})
		defer node.Drain(&http.Server{}) // closes the node's warm store
		rp.node = node.Handler()
		for i := 0; i < len(reqs) && i < replayItems && time.Now().Before(deadline); i++ {
			if err := rp.single(&reqs[i].items[0]); err != nil {
				return nil, err
			}
		}
	}

	for name, v := range layerStats(rp.tr.spans) {
		switch name {
		case "request":
			vals["trace.request_self_us"] = v
		case "engine.analyze":
			vals["engine.ms_per_verdict"] = v / 1e3
		case "cluster.shard_batch", "client.stream_decode":
			// Reported per batch and per frame by replayCluster.
		default:
			vals[name+"_us"] = v
		}
	}
	// Transport is what the end-to-end median adds to the in-process
	// pipeline. Only where that pipeline is microseconds does the
	// difference mean anything; on cold-enumerate it is engine noise
	// (the in-process replay can even be the slower one).
	if b.name == "hits" {
		vals["serve.transport_us"] = m.perSlice(sliceP50).Median*1e3 - vals["serve.request_us"]
	}
	if rp.lruGets > 0 {
		vals["cache.lru_hit_ratio"] = float64(rp.lruHits) / float64(rp.lruGets)
	}
	if rp.engCalls > 0 {
		n := rp.engCalls
		vals["engine.allocs_per_verdict"] = rp.engAllocs / n
		vals["engine.bytes_per_verdict"] = rp.engBytes / n
		vals["engine.configs"] = rp.engConfigs / n
		vals["engine.rounds"] = rp.engRounds / n
		vals["engine.views_interned"] = rp.engViews / n
		vals["engine.symbolic_rounds"] = rp.engSym / n
		vals["engine.symbolic_fallbacks"] = rp.engFallbacks
		vals["engine.intervals_peak"] = rp.engPeak
	}
	if len(rp.jsonBytes) > 0 {
		vals["wire.json_bytes"] = median(rp.jsonBytes)
	}
	if len(rp.binBytes) > 0 {
		vals["wire.binary_bytes"] = median(rp.binBytes)
	}

	// Server counters over the end-to-end run.
	// Repeats are served by the nodes' caches, or by the coordinator's
	// on cluster-batch: hits count every tier.
	vals["cache.hits"] = m.nodeDelta("cacheHits") + m.coordDelta("cacheHits")
	vals["cache.misses"] = m.nodeDelta("cacheMisses")
	vals["cache.warm_hits"] = m.nodeDelta("warmHits") + m.coordDelta("warmHits")
	vals["cache.singleflight_shared"] = m.nodeDelta("singleflightShared")
	vals["admission.shed"] = m.nodeDelta("shed")
	vals["admission.timeouts"] = m.nodeDelta("timeouts")
	vals["breaker.fast_fails"] = m.nodeDelta("breakerFastFails")
	vals["engine.server_wall_ms"] = m.nodeDelta("engineWallNanos") / 1e6
	if b.spec.coordinator {
		vals["cluster.hedges"] = m.coordDelta("hedges")
		vals["cluster.failovers"] = m.coordDelta("failovers")
		if h, mi := m.coordDelta("cacheHits"), m.coordDelta("cacheMisses"); h+mi > 0 {
			vals["cluster.coord_hit_ratio"] = h / (h + mi)
		}
	}

	if err := b.writeSpans(rp.tr.spans); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(layerMoves))
	for name := range layerMoves {
		out[name] = metric{Value: vals[name], Unit: layerUnit(name)}
	}
	return out, nil
}

// single replays one item: the whole node pipeline in-process, then
// each layer on its own.
func (rp *replay) single(it *item) error {
	tr := rp.tr
	root := tr.begin("request", 0)
	defer tr.end(root)

	req := httptest.NewRequest(http.MethodPost, it.Path, bytes.NewReader(it.Body))
	rec := httptest.NewRecorder()
	tr.do("serve.request", root, func() { rp.node.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s %s: status %d", it.Path, it.Body, rec.Code)
	}

	var key string
	var sch *coordattack.Scheme
	var g *coordattack.Graph
	var body schemeBody
	var nbody netBody
	var err error
	if it.Path == pathNet {
		tr.do("serve.decode", root, func() { err = json.Unmarshal(it.Body, &nbody) })
		if err == nil {
			tr.do("scheme.resolve", root, func() { g, err = nbody.GraphSelector.Resolve() })
		}
		if err == nil {
			tr.do("serve.key", root, func() { key = serve.NetSolvableKey(g, nbody.F, nbody.Rounds) })
		}
	} else {
		tr.do("serve.decode", root, func() { err = json.Unmarshal(it.Body, &body) })
		if err == nil {
			tr.do("scheme.resolve", root, func() { sch, err = body.SchemeSelector.Resolve() })
		}
		if err == nil {
			tr.do("serve.key", root, func() {
				switch {
				case it.Path == pathClassify:
					key = serve.ClassifyKey(sch)
				case body.MinRounds:
					key = serve.SolvableKey(sch, body.MaxHorizon, true)
				default:
					key = serve.SolvableKey(sch, body.Horizon, false)
				}
			})
		}
	}
	if err != nil {
		return fmt.Errorf("replaying %s: %w", it.Body, err)
	}
	if key != it.Key {
		return fmt.Errorf("replayed key %s, generator key %s", key, it.Key)
	}

	var hit bool
	tr.do("cache.lru_get", root, func() { _, hit = rp.lru.Get(key) })
	rp.lruGets++
	if hit {
		rp.lruHits++
	} else {
		rp.lru.Put(key, struct{}{})
	}

	if it.Path == pathClassify {
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return err
		}
		rp.encode(root, v, false)
		return nil
	}
	if rp.engine {
		if err := rp.analyze(root, it, sch, g, &body, &nbody); err != nil {
			return err
		}
	}
	// Encode the verdict the node served, both ways, then decode the
	// frame as a client would.
	var v any
	if it.Path == pathNet {
		var nv wire.NetSolvable
		err = json.Unmarshal(rec.Body.Bytes(), &nv)
		v = nv
	} else {
		var sv wire.Solvable
		err = json.Unmarshal(rec.Body.Bytes(), &sv)
		v = sv
	}
	if err != nil {
		return err
	}
	frame := rp.encode(root, v, true)
	if rp.engine {
		tr.do("warm.append", root, func() { err = rp.store.Append(key, frame) })
		if err != nil {
			return err
		}
	}
	tr.do("client.frame_decode", root, func() { _, err = wire.Unmarshal(frame) })
	return err
}

// encode times the JSON body the node writes (indented) and, for
// verdicts with a frame, the binary encoding; it returns the frame.
func (rp *replay) encode(root int, v any, binary bool) []byte {
	var jb, fb []byte
	rp.tr.do("wire.encode_json", root, func() { jb, _ = json.MarshalIndent(v, "", "  ") })
	rp.jsonBytes = append(rp.jsonBytes, float64(len(jb)))
	if binary {
		rp.tr.do("wire.encode_binary", root, func() { fb, _ = wire.AppendVerdict(nil, v) })
		rp.binBytes = append(rp.binBytes, float64(len(fb)))
	}
	return fb
}

// analyze runs the engine the way the node does on a miss, with the
// node's default options, and records its allocations and Observer
// statistics. Memory statistics are read outside the span.
func (rp *replay) analyze(root int, it *item, sch *coordattack.Scheme, g *coordattack.Graph, body *schemeBody, nbody *netBody) error {
	eng := coordattack.EngineDefaults()
	eng.Scratch = rp.scratch
	var obs []coordattack.EngineStats
	observe := func(st coordattack.EngineStats) { obs = append(obs, st) }
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	rp.tr.do("engine.analyze", root, func() {
		if it.Path == pathNet {
			_, err = coordattack.AnalyzeNet(context.Background(), coordattack.NetAnalysisRequest{
				Graph: g, F: nbody.F, Horizon: nbody.Rounds, VerdictOnly: true, Observer: observe, Engine: &eng})
			return
		}
		h := body.Horizon
		if body.MinRounds {
			h = body.MaxHorizon
		}
		_, err = coordattack.Analyze(context.Background(), coordattack.RoundsRequest{
			Scheme: sch, Horizon: h, MinRounds: body.MinRounds, VerdictOnly: body.MinRounds, Observer: observe, Engine: &eng})
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("engine on %s: %w", it.Body, err)
	}
	rp.engCalls++
	rp.engAllocs += float64(m1.Mallocs - m0.Mallocs)
	rp.engBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	for _, st := range obs {
		rp.engConfigs += float64(st.Configs)
		rp.engRounds += float64(st.Rounds)
		rp.engViews += float64(st.NewViews)
		rp.engSym += float64(st.SymbolicRounds)
		rp.engFallbacks += float64(st.SymbolicFallbacks)
		rp.engPeak = max(rp.engPeak, float64(st.IntervalsPeak))
	}
	return nil
}

// replayCluster replays fresh batches of the cluster-batch stream: each
// item's key and ring route as the coordinator computes them, then the
// batch sent straight to each owning shard with client.SolveBatch, one
// owner after another, and the shard's frame stream decoded again.
// cluster.shard_batch_ms is the median over batches of the slowest
// owner's sub-batch, the critical path of the coordinator's fan-out.
func (b *bench) replayCluster(ctx context.Context, rp *replay, batches []request, deadline time.Time, vals map[string]float64, m *measurement) error {
	nodes := b.servers[:b.spec.nodes]
	bases := make([]string, len(nodes))
	for i, s := range nodes {
		bases[i] = s.base
	}
	ring := cluster.NewRing(bases, 0)
	var captured bytes.Buffer
	hc := &http.Client{Transport: &teeTransport{base: http.DefaultTransport, w: &captured}}
	clients := make([]*client.Client, len(bases))
	for i, base := range bases {
		clients[i] = client.New(base, client.Options{HTTPClient: hc, MaxAttempts: 1})
	}
	tr := rp.tr
	var critical, perFrame []float64
	for _, q := range batches {
		if time.Now().After(deadline) {
			break
		}
		root := tr.begin("request", 0)
		byOwner := make([][]client.BatchItem, len(bases))
		for i := range q.items {
			it := &q.items[i]
			var body schemeBody
			var sch *coordattack.Scheme
			var err error
			tr.do("serve.decode", root, func() { err = json.Unmarshal(it.Body, &body) })
			if err == nil {
				tr.do("scheme.resolve", root, func() { sch, err = body.SchemeSelector.Resolve() })
			}
			if err != nil {
				return err
			}
			var key string
			tr.do("serve.key", root, func() {
				key = serve.SolvableKey(sch, max(body.Horizon, body.MaxHorizon), body.MinRounds)
			})
			if key != it.Key {
				return fmt.Errorf("replayed key %s, generator key %s", key, it.Key)
			}
			var owner int
			tr.do("cluster.route", root, func() { owner = ring.Owner(key) })
			byOwner[owner] = append(byOwner[owner], it.Batch)
			var hit bool
			tr.do("cache.lru_get", root, func() { _, hit = rp.lru.Get(key) })
			rp.lruGets++
			if hit {
				rp.lruHits++
			} else {
				rp.lru.Put(key, struct{}{})
				if err := rp.analyze(root, it, sch, nil, &body, nil); err != nil {
					return err
				}
			}
		}
		slowest := 0.0
		for o, items := range byOwner {
			if len(items) == 0 {
				continue
			}
			captured.Reset()
			id := tr.begin("cluster.shard_batch", root)
			answered := 0
			err := clients[o].SolveBatch(ctx, items, func(v client.BatchVerdict) error {
				if v.Status != http.StatusOK {
					return fmt.Errorf("shard item %d: status %d: %s", v.Index, v.Status, v.Error)
				}
				answered++
				return nil
			})
			tr.end(id)
			if err != nil {
				return fmt.Errorf("shard batch to %s: %w", bases[o], err)
			}
			if answered != len(items) {
				return fmt.Errorf("shard %s answered %d of %d items", bases[o], answered, len(items))
			}
			s := tr.spans[id-1]
			slowest = max(slowest, float64(s.End-s.Start)/1e6)
			stream := append([]byte(nil), captured.Bytes()...)
			var frames int
			id = tr.begin("client.stream_decode", root)
			sc := wire.NewFrameScanner(bytes.NewReader(stream), 0)
			for {
				_, payload, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("decoding shard stream: %w", err)
				}
				if _, err := wire.DecodeBatchLine(payload); err != nil {
					return err
				}
				frames++
			}
			tr.end(id)
			if s := tr.spans[id-1]; frames > 0 {
				perFrame = append(perFrame, float64(s.End-s.Start)/1e3/float64(frames))
			}
		}
		critical = append(critical, slowest)
		tr.end(root)
	}
	if len(critical) > 0 {
		vals["cluster.shard_batch_ms"] = median(critical)
		vals["cluster.coord_overhead_ms"] = m.perSlice(sliceP50).Median - median(critical)
	}
	if len(perFrame) > 0 {
		vals["client.frame_decode_us"] = median(perFrame)
	}
	return nil
}

// teeTransport copies every response body it delivers into w.
type teeTransport struct {
	base http.RoundTripper
	w    io.Writer
}

func (t *teeTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if resp != nil {
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.TeeReader(resp.Body, t.w), resp.Body}
	}
	return resp, err
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// writeSpans writes the replay's spans as JSON lines under the work
// directory's traces/ folder.
func (b *bench) writeSpans(spans []span) error {
	dir := filepath.Join(filepath.Dir(b.dir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", b.name, b.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
