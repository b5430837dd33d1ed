package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// item is one verdict the benchmark asks for: the request body as the
// server receives it, the canonical key the server will compute for it,
// and the paper's oracle for the reply.
type item struct {
	Path string
	Body []byte
	Key  string
	Want want
	// Expr is set when the scheme is spelled as an expression.
	Expr bool
	// Batch is the same request as a batch entry (cluster-batch only).
	Batch client.BatchItem
}

// Endpoints.
const (
	pathSolvable = "/v1/solvable"
	pathNet      = "/v1/net/solvable"
	pathClassify = "/v1/classify"
)

// schemeBody is the request body of /v1/solvable and /v1/classify.
type schemeBody struct {
	serve.SchemeSelector
	Horizon    int  `json:"horizon,omitempty"`
	MinRounds  bool `json:"minRounds,omitempty"`
	MaxHorizon int  `json:"maxHorizon,omitempty"`
}

// netBody is the request body of /v1/net/solvable.
type netBody struct {
	serve.GraphSelector
	F      int `json:"f"`
	Rounds int `json:"rounds"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request structs always marshal
	}
	return b
}

// upScenario draws an ultimately periodic scenario u(v) over letters,
// with |u| ≤ maxPre and 1 ≤ |v| ≤ maxPer.
func upScenario(rng *rand.Rand, letters string, maxPre, maxPer int) string {
	var sb strings.Builder
	for i, n := 0, rng.Intn(maxPre+1); i < n; i++ {
		sb.WriteByte(letters[rng.Intn(len(letters))])
	}
	sb.WriteByte('(')
	for i, n := 0, 1+rng.Intn(maxPer); i < n; i++ {
		sb.WriteByte(letters[rng.Intn(len(letters))])
	}
	sb.WriteByte(')')
	return sb.String()
}

// solvableItem builds a /v1/solvable item for sel at a fixed horizon
// (search=false) or a minRounds search capped at h.
func solvableItem(sel serve.SchemeSelector, h int, search bool, w want) (item, error) {
	sch, err := sel.Resolve()
	if err != nil {
		return item{}, err
	}
	body := schemeBody{SchemeSelector: sel}
	bi := client.BatchItem{Scheme: sel.Scheme, Expr: sel.Expr, Minus: sel.Minus}
	if search {
		body.MinRounds, body.MaxHorizon = true, h
		bi.MinRounds, bi.MaxHorizon = true, h
	} else {
		body.Horizon = h
		bi.Horizon = h
	}
	w.Kind, w.Horizon, w.Search = kindSolvable, h, search
	return item{Path: pathSolvable, Body: mustJSON(body), Key: serve.SolvableKey(sch, h, search), Want: w, Expr: sel.Expr != "", Batch: bi}, nil
}

func classifyItem(sel serve.SchemeSelector, w want) (item, error) {
	sch, err := sel.Resolve()
	if err != nil {
		return item{}, err
	}
	w.Kind = kindClassify
	return item{Path: pathClassify, Body: mustJSON(sel), Key: serve.ClassifyKey(sch), Want: w, Expr: sel.Expr != ""}, nil
}

// r1Minus selects R1 = Γ^ω minus one scenario, spelled either by name
// or, when expr is set, as the expression [.wb]^w.
func r1Minus(sc string, expr bool) serve.SchemeSelector {
	if expr {
		return serve.SchemeSelector{Expr: "[.wb]^w", Minus: []string{sc}}
	}
	return serve.SchemeSelector{Scheme: "R1", Minus: []string{sc}}
}

// r1MinusItem asks about R1 minus one scenario. Its r-round prefixes
// are all of Γ^r (removing one infinite word removes no finite prefix),
// so by Lemma III.2 it is unsolvable at every horizon with 4·3^r
// configurations, and a minRounds search finds nothing.
func r1MinusItem(sel serve.SchemeSelector, h int, search bool) (item, error) {
	w := want{Unsolv: true}
	if !search {
		w.Configs = prefixConfigs(3, h)
	}
	return solvableItem(sel, h, search, w)
}

// r1MinusClassifyItem classifies R1 minus one scenario. The classifier
// must be complete (a Γ-subscheme) and give no bounded horizon, since no
// horizon is solvable.
func r1MinusClassifyItem(sel serve.SchemeSelector) (item, error) {
	return classifyItem(sel, want{ClassMin: -1})
}

// s2MinusItem asks about S2 = Σ^ω minus one scenario at horizon h. Its
// prefixes are all of Σ^h, so it is unsolvable with 4·4^h
// configurations (Cor. III.5), and the symbolic Γ backend rejects it.
func s2MinusItem(sc string, h int) (item, error) {
	sel := serve.SchemeSelector{Scheme: "S2", Minus: []string{sc}}
	return solvableItem(sel, h, false, want{Unsolv: true, Configs: prefixConfigs(4, h)})
}

// namedItem asks about a named scheme at a fixed horizon: solvable
// exactly from its Section IV round complexity on.
func namedItem(name string, h int) (item, error) {
	m := namedMinRounds[name]
	w := want{Unsolv: m == 0 || h < m, Solv: m > 0 && h >= m}
	switch name {
	case "R1":
		w.Configs = prefixConfigs(3, h)
	case "S2":
		w.Configs = prefixConfigs(4, h)
	}
	return solvableItem(serve.SchemeSelector{Scheme: name}, h, false, w)
}

// namedSearchItem runs a minRounds search on a named scheme capped at
// maxH: it must find the round complexity when the cap allows it.
func namedSearchItem(name string, maxH int) (item, error) {
	m := namedMinRounds[name]
	if m > maxH {
		m = 0
	}
	return solvableItem(serve.SchemeSelector{Scheme: name}, maxH, true, want{MinFind: m})
}

// namedClassifyItem classifies a named scheme: Theorem III.8 must agree
// with the Section IV round complexities. S2 has double omissions, so
// the theorem covers it only partially.
func namedClassifyItem(name string) (item, error) {
	m := namedMinRounds[name]
	w := want{ClassMin: -1, ClassSolv: true, ClassSolvV: m > 0, Partial: name == "S2"}
	if m > 0 {
		w.ClassMin = m
	}
	return classifyItem(serve.SchemeSelector{Scheme: name}, w)
}

// randomGraph draws a connected graph on n vertices: a random spanning
// tree plus each other edge with probability p.
func randomGraph(rng *rand.Rand, n int, p float64) [][2]int {
	perm := rng.Perm(n)
	var edges [][2]int
	has := map[[2]int]bool{}
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if !has[[2]int{a, b}] {
			has[[2]int{a, b}] = true
			edges = append(edges, [2]int{a, b})
		}
	}
	for i := 1; i < n; i++ {
		add(perm[rng.Intn(i)], perm[i])
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				add(a, b)
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// netItem asks /v1/net/solvable about a custom graph. Theorem V.1: the
// verdict's theoremV1 must equal f < c(G), and f ≥ c(G) must be
// unsolvable at every horizon; c(G) comes from the benchmark's own
// brute-force min cut.
func netItem(n int, edges [][2]int, f, r int) (item, error) {
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%d-%d", e[0], e[1])
	}
	sel := serve.GraphSelector{Graph: "custom", Edges: strings.Join(parts, ",")}
	g, err := sel.Resolve()
	if err != nil {
		return item{}, err
	}
	if g.N() != n {
		return item{}, fmt.Errorf("graph %q has %d vertices, want %d", sel.Edges, g.N(), n)
	}
	w := want{Kind: kindNet, F: f, Horizon: r, Cut: minCut(n, edges)}
	return item{Path: pathNet, Body: mustJSON(netBody{GraphSelector: sel, F: f, Rounds: r}), Key: serve.NetSolvableKey(g, f, r), Want: w}, nil
}

// distinctGen wraps an item source and proves distinctness by canonical
// key: a candidate whose key was already issued is drawn again.
type distinctGen struct {
	seen map[string]bool
	draw func() (item, error)
}

func newDistinctGen(draw func() (item, error)) *distinctGen {
	return &distinctGen{seen: map[string]bool{}, draw: draw}
}

// next returns an item whose key no earlier item had.
func (g *distinctGen) next() (item, error) {
	for tries := 0; tries < 1000; tries++ {
		it, err := g.draw()
		if err != nil {
			return item{}, err
		}
		if !g.seen[it.Key] {
			g.seen[it.Key] = true
			return it, nil
		}
	}
	return item{}, fmt.Errorf("item generator exhausted: 1000 draws in a row repeated a key")
}

func (g *distinctGen) take(n int) ([]item, error) {
	out := make([]item, 0, n)
	for len(out) < n {
		it, err := g.next()
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// coldSymbolicDraw draws R1 minus a random scenario: fixed horizons and
// minRounds searches up to 12, about a third spelled as expressions.
// Every one of them is answered by the symbolic backend. The shares (1/3
// expressions, 3/10 searches) are assumptions: no traffic record of the
// service gives them.
func coldSymbolicDraw(rng *rand.Rand) func() (item, error) {
	return func() (item, error) {
		sel := r1Minus(upScenario(rng, ".wb", 8, 6), rng.Intn(3) == 0)
		return r1MinusItem(sel, 1+rng.Intn(12), rng.Intn(10) < 3)
	}
}

// Fixed horizons of cold-enumerate: S2 at coldEnumHorizon, and the
// custom-graph items at coldNetRounds rounds. Both cost single-digit
// milliseconds of enumeration per verdict.
const (
	coldEnumHorizon = 6
	coldNetN        = 5
	coldNetRounds   = 2
)

// coldEnumerateDraw draws S2 minus a random scenario at one fixed
// horizon, and, for one item in eight (an assumed share), a random
// connected 5-vertex graph with f=1.
func coldEnumerateDraw(rng *rand.Rand) func() (item, error) {
	return func() (item, error) {
		if rng.Intn(8) == 0 {
			return netItem(coldNetN, randomGraph(rng, coldNetN, 0.3), 1, coldNetRounds)
		}
		return s2MinusItem(upScenario(rng, ".wbx", 8, 6), coldEnumHorizon)
	}
}

// hitsUniverse is the key set of the hits workload: three pools of
// hitsPoolSize distinct verdicts, one per endpoint (/v1/solvable,
// /v1/classify, /v1/net/solvable), together four times the default LRU.
// As in capbench, schemes are named, never spelled as expressions, and
// fixed horizons run from 1 to capbench's default -max-horizon of 9. The
// solvable and classify pools hold the paper's table (the named schemes
// at small horizons, their minRounds searches and classifications); the
// rest are R1-minus-one-scenario items and small custom graphs, all
// cheap to compute.
const (
	hitsPoolSize   = 1365
	hitsMaxHorizon = 9
)

func hitsUniverse(rng *rand.Rand) ([3][]item, error) {
	var pools [3][]item
	seen := map[string]bool{}
	fill := func(p int, fixed []item, draw func() (item, error)) error {
		g := newDistinctGen(draw)
		g.seen = seen
		for _, it := range fixed {
			seen[it.Key] = true
		}
		rest, err := g.take(hitsPoolSize - len(fixed))
		if err != nil {
			return err
		}
		pools[p] = append(fixed, rest...)
		rng.Shuffle(len(pools[p]), func(i, j int) { pools[p][i], pools[p][j] = pools[p][j], pools[p][i] })
		return nil
	}
	var solv, class []item
	for _, name := range namedSchemes {
		for h := 1; h <= 4; h++ {
			it, err := namedItem(name, h)
			if err != nil {
				return pools, err
			}
			solv = append(solv, it)
		}
		for maxH := 2; maxH <= 5; maxH++ {
			it, err := namedSearchItem(name, maxH)
			if err != nil {
				return pools, err
			}
			solv = append(solv, it)
		}
		it, err := namedClassifyItem(name)
		if err != nil {
			return pools, err
		}
		class = append(class, it)
	}
	r1 := func() serve.SchemeSelector { return r1Minus(upScenario(rng, ".wb", 6, 5), false) }
	if err := fill(0, solv, func() (item, error) {
		return r1MinusItem(r1(), 1+rng.Intn(hitsMaxHorizon), false)
	}); err != nil {
		return pools, err
	}
	if err := fill(1, class, func() (item, error) {
		return r1MinusClassifyItem(r1())
	}); err != nil {
		return pools, err
	}
	err := fill(2, nil, func() (item, error) {
		// Small graphs stay cheap to bake: one round on five vertices,
		// at most two rounds (f ≤ 1) on three or four.
		n, r, f := 3+rng.Intn(3), 1, rng.Intn(3)
		if n < 5 && rng.Intn(2) == 0 {
			r, f = 2, rng.Intn(2)
		}
		return netItem(n, randomGraph(rng, n, 0.4), f, r)
	})
	return pools, err
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1):
// a skewed popularity whose head fits the LRU and whose tail does not.
// The exponent 1 is an assumption, not a measured popularity.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: rng}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}
