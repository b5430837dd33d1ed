package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/serve/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // 10 samples above p99
		{999, 90, true},  // only 9 above p99
		{100, 90, true},  // 10 above p90
		{99, 0, false},   // 9 above p90: too thin for any candidate
		{5000, 99, true},
	} {
		p, ok := tailPercentile(c.n, 10, 99, 90)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, m, q3 := quartiles(v)
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, m, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || m != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, m, q3)
	}
	if v[0] != 10 {
		t.Error("quartiles reordered its input")
	}
}

func TestSlicesOfCutsAtCPUSamples(t *testing.T) {
	ms := time.Millisecond
	samples := []cpuSample{{0, 10}, {1000 * ms, 10.5}, {2000 * ms, 11.5}}
	outs := []outcome{
		{end: 200 * ms, lat: 2 * ms, verdicts: 1},
		{end: 1000 * ms, lat: 4 * ms, verdicts: 1}, // on a sample: closes slice 0
		{end: 1001 * ms, lat: 6 * ms, verdicts: 16},
		{end: 1500 * ms, lat: 8 * ms, failed: 1},
		{end: 2100 * ms, lat: 9 * ms, verdicts: 1}, // after the last sample: left out
	}
	sl := slicesOf(outs, samples)
	if len(sl) != 2 {
		t.Fatalf("%d slices, want 2", len(sl))
	}
	if sl[0].verdicts != 2 || len(sl[0].latMs) != 2 || sl[1].verdicts != 16 || len(sl[1].latMs) != 2 {
		t.Fatalf("slices %+v", sl)
	}
	m := &measurement{slices: sl}
	if got := m.perSlice(sliceRate).Values; got[0] != 2 || got[1] != 16 {
		t.Errorf("rates %v, want [2 16]", got)
	}
	if got := m.perSlice(sliceCPUMs).Values; got[0] != 250 || got[1] != 62.5 {
		t.Errorf("cpu ms per verdict %v, want [250 62.5]", got)
	}
	if got := m.perSlice(sliceP50).Values; got[0] != 2 || got[1] != 6 {
		t.Errorf("p50 %v, want [2 6]", got)
	}
	if slicesOf(outs, samples[:1]) != nil {
		t.Error("one sample makes no slice")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 25, End: 50},  // overlaps a by 5
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent by 20
		{Name: "request", ID: 5, Start: 200, End: 260},
		{Name: "a", ID: 6, Parent: 5, Start: 200, End: 260},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of [0,100]: 50 ns left.
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 25, 4: 30, 5: 0, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	stats := layerStats(spans)
	if stats["request"] != 0.025 || stats["a"] != 0.04 {
		t.Errorf("layerStats = %v, want request 0.025µs (median of 50, 0 ns) and a 0.04µs", stats)
	}
}

func TestTracerNestsUnderRoot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 0)
	tr.do("leaf", root, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestMinCutBruteForce(t *testing.T) {
	for _, c := range []struct {
		n     int
		edges [][2]int
		want  int
	}{
		{3, [][2]int{{0, 1}, {1, 2}}, 1},                                 // path
		{4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 2},                 // cycle
		{4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 3}, // K4
		{4, [][2]int{{0, 1}, {2, 3}}, 0},                                 // disconnected
	} {
		if got := minCut(c.n, c.edges); got != c.want {
			t.Errorf("minCut(%v) = %d, want %d", c.edges, got, c.want)
		}
	}
}

// The oracles must pass the engine's true verdicts and catch a
// deliberately corrupted copy of each.
func TestOraclesCatchCorruptedVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		it      func() (item, error)
		good    fields
		corrupt func(*fields)
	}{
		{"R1 minus one scenario, h=3", func() (item, error) { return r1MinusItem(r1Minus("w.(b)", false), 3, false) },
			fields{Kind: kindSolvable, Horizon: 3, Found: -1, Configs: "108"},
			func(f *fields) { f.Configs = "107" }},
		{"R1 minus one scenario is never solvable", func() (item, error) { return r1MinusItem(r1Minus("(w)", true), 5, false) },
			fields{Kind: kindSolvable, Horizon: 5, Found: -1, Configs: "972"},
			func(f *fields) { f.Solvable = true }},
		{"R1 minus one scenario: no minRounds", func() (item, error) { return r1MinusItem(r1Minus("(.)", false), 12, true) },
			fields{Kind: kindSolvable, Horizon: 12, Found: 0},
			func(f *fields) { f.Found, f.Solvable, f.Horizon = 1, true, 7 }},
		{"S2 minus one scenario, h=6", func() (item, error) { return s2MinusItem("x(.)", 6) },
			fields{Kind: kindSolvable, Horizon: 6, Found: -1, Configs: "16384"},
			func(f *fields) { f.Configs = "16385" }},
		{"S1 round complexity 2", func() (item, error) { return namedSearchItem("S1", 4) },
			fields{Kind: kindSolvable, Horizon: 2, Found: 1, Solvable: true},
			func(f *fields) { f.Horizon = 3 }},
		{"TW solvable at 1", func() (item, error) { return namedItem("TW", 1) },
			fields{Kind: kindSolvable, Horizon: 1, Found: -1, Solvable: true, Configs: "8"},
			func(f *fields) { f.Solvable = false }},
		{"C1 classify agrees", func() (item, error) { return namedClassifyItem("C1") },
			fields{Kind: kindClassify, Complete: true, HasSolv: true, Solvable: true, MinRounds: 2, Found: -1},
			func(f *fields) { f.MinRounds = 1 }},
		{"S2 classify partial and unsolvable", func() (item, error) { return namedClassifyItem("S2") },
			fields{Kind: kindClassify, HasSolv: true, MinRounds: -1, Found: -1},
			func(f *fields) { f.Solvable = true }},
		{"Theorem V.1: f ≥ c(G) unsolvable", func() (item, error) {
			return netItem(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 2, 1)
		}, fields{Kind: kindNet, N: 4, F: 2, Rounds: 1, Cut: 2, Found: -1},
			func(f *fields) { f.Solvable = true }},
		{"Theorem V.1 flag", func() (item, error) { return netItem(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 1, 2) },
			fields{Kind: kindNet, N: 3, F: 1, Rounds: 2, Cut: 2, TheoremV1: true, Found: -1},
			func(f *fields) { f.TheoremV1 = false }},
	}
	for _, c := range cases {
		it, err := c.it()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := it.Want.check(c.good); err != nil {
			t.Errorf("%s: true verdict rejected: %v", c.name, err)
		}
		bad := c.good
		c.corrupt(&bad)
		if it.Want.check(bad) == nil {
			t.Errorf("%s: corrupted verdict %+v accepted", c.name, bad)
		}
	}
}

// Two replies for one key that differ in a key-determined field are a
// wrong verdict even when each passes its oracle on its own.
func TestBookCatchesEncodingDisagreement(t *testing.T) {
	it, err := r1MinusItem(r1Minus("(wb)", false), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	bk := newBook()
	good := fields{Kind: kindSolvable, Horizon: 2, Found: -1, Configs: "36", Components: 1, Mixed: 1}
	if !bk.verify(&it, good) || !bk.verify(&it, good) {
		t.Fatal("identical replies rejected")
	}
	other := good
	other.Components = 2
	if bk.verify(&it, other) || bk.wrong != 1 {
		t.Fatalf("disagreeing reply accepted (wrong=%d)", bk.wrong)
	}
}

// The JSON and binary encodings of one verdict decode to equal fields,
// and the fields ignore the telemetry that may differ between replies.
func TestDecodeVerdictEncodingsAgree(t *testing.T) {
	found := false
	v := wire.Solvable{Scheme: "R1-custom", Horizon: 12, Solvable: false, Found: &found,
		Engine: &wire.EngineStats{Configs: 99}, Cached: true, ElapsedMs: 3}
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := wire.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	a, err := decodeVerdict(kindSolvable, js)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeVerdict(kindSolvable, fr)
	if err != nil {
		t.Fatal(err)
	}
	v.Engine, v.Cached, v.Shared, v.ElapsedMs, v.Scheme = &wire.EngineStats{Configs: 1}, false, true, 40, "other"
	c, err := decodeVerdict(kindSolvable, mustJSON(v))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != c {
		t.Errorf("fields differ: json %+v, binary %+v, other telemetry %+v", a, b, c)
	}
}

func TestGeneratorsAreDistinctAndSeeded(t *testing.T) {
	for name, draw := range map[string]func(*rand.Rand) func() (item, error){
		"cluster-batch":  coldSymbolicDraw,
		"cold-enumerate": coldEnumerateDraw,
	} {
		a, err := newDistinctGen(draw(rand.New(rand.NewSource(3)))).take(400)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkDistinct(a); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		b, err := newDistinctGen(draw(rand.New(rand.NewSource(3)))).take(400)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Key != b[i].Key || string(a[i].Body) != string(b[i].Body) {
				t.Fatalf("%s: item %d differs between two runs of one seed", name, i)
			}
		}
	}
}

func TestDistinctGenRejectsRepeats(t *testing.T) {
	// A source with three keys: the generator must issue each once and
	// then report exhaustion instead of repeating one.
	n := 0
	g := newDistinctGen(func() (item, error) {
		n++
		return item{Key: string(rune('a' + n%3))}, nil
	})
	items, err := g.take(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDistinct(items); err != nil {
		t.Fatal(err)
	}
	if _, err := g.next(); err == nil {
		t.Fatal("exhausted generator returned a repeated key")
	}
	if checkDistinct(append(items, items[0])) == nil {
		t.Fatal("checkDistinct missed a repeated key")
	}
}

func TestHitsUniverseDistinct(t *testing.T) {
	pools, err := hitsUniverse(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var all []item
	for p, path := range []string{pathSolvable, pathClassify, pathNet} {
		if len(pools[p]) != hitsPoolSize {
			t.Errorf("pool %d has %d items, want %d", p, len(pools[p]), hitsPoolSize)
		}
		for _, it := range pools[p] {
			if it.Path != path || it.Expr {
				t.Fatalf("pool %d holds %s (expr %v), want %s by name", p, it.Path, it.Expr, path)
			}
		}
		all = append(all, pools[p]...)
	}
	if err := checkDistinct(all); err != nil {
		t.Fatal(err)
	}
}

// The measured shape counts what a list sends: endpoint shares, the
// JSON/binary split fixed by alternate, and repeats of earlier keys.
func TestShapeOf(t *testing.T) {
	a := item{Path: pathSolvable, Key: "a", Expr: true}
	b := item{Path: pathNet, Key: "b", Want: want{Search: true}}
	reqs := singles([]item{a, b, a, a})
	if !reqs[1].binary || reqs[2].binary {
		t.Fatalf("alternate: binary flags %v %v, want true false", reqs[1].binary, reqs[2].binary)
	}
	reqs = append(reqs, request{items: []item{b, b}, batch: true})
	sh := shapeOf(reqs)
	want := map[string]float64{"items": 6, "distinctKeys": 2, "expr": 0.5, "search": 0.5,
		"repeat": 4.0 / 6, "binarySingles": 0.5, "path:" + pathSolvable: 0.5, "path:" + pathNet: 0.5}
	for k, v := range want {
		if math.Abs(sh[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, sh[k], v)
		}
	}
	if len(sh) != len(want) {
		t.Errorf("shape has keys %v, want %v", sh, want)
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(rand.New(rand.NewSource(1)), 4096)
	head := 0
	for i := 0; i < 100000; i++ {
		if z.next() < 1024 {
			head++
		}
	}
	// Σ_{i≤1024} 1/i ÷ Σ_{i≤4096} 1/i ≈ 0.845.
	if f := float64(head) / 100000; f < 0.82 || f > 0.87 {
		t.Errorf("head share %.3f, want ≈0.845", f)
	}
}

// checkDistinct verifies that no two items share a canonical key.
func checkDistinct(items []item) error {
	seen := make(map[string]int, len(items))
	for i, it := range items {
		if j, dup := seen[it.Key]; dup {
			return fmt.Errorf("items %d and %d share key %s", j, i, it.Key)
		}
		seen[it.Key] = i
	}
	return nil
}
