package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"strconv"

	"repro/internal/serve/wire"
)

// Verdict kinds, one per endpoint family the benchmark drives.
const (
	kindSolvable = 's'
	kindNet      = 'n'
	kindClassify = 'c'
)

// fields is the part of a verdict its canonical key determines,
// normalized across the JSON and binary encodings so that two replies
// for one key compare with ==. It deliberately leaves out the engine
// block, elapsedMs, cached and shared: those describe how a reply was
// produced, and the engine counts of an early-exit network run depend on
// worker order. Scheme and graph names are left out too, because two
// spellings of one automaton share a key but not a name.
type fields struct {
	Kind     byte
	Solvable bool
	// Solvable endpoint.
	Horizon    int
	Found      int8 // -1 absent (fixed horizon), 0 false, 1 true
	Configs    string
	Components int
	Mixed      int
	// Network endpoint.
	N, F, Rounds int
	Cut          int
	TheoremV1    bool
	// Classify endpoint.
	Complete  bool
	HasSolv   bool
	MinRounds int // -1 when the classifier gives no bounded horizon
}

func solvableFields(v *wire.Solvable) fields {
	f := fields{Kind: kindSolvable, Solvable: v.Solvable, Horizon: v.Horizon, Found: -1,
		Configs: strconv.Itoa(v.Configs), Components: v.Components, Mixed: v.MixedComponents}
	if v.ConfigsExact != "" {
		f.Configs = v.ConfigsExact
	}
	if v.Found != nil {
		f.Found = 0
		if *v.Found {
			f.Found = 1
		}
	}
	return f
}

func netFields(v *wire.NetSolvable) fields {
	return fields{Kind: kindNet, Solvable: v.Solvable, N: v.N, F: v.F, Rounds: v.Rounds,
		Cut: v.EdgeConnectivity, TheoremV1: v.TheoremV1, Found: -1}
}

// classifyReply mirrors the /v1/classify JSON body (the endpoint has no
// binary encoding).
type classifyReply struct {
	Complete  bool  `json:"complete"`
	Solvable  *bool `json:"solvable"`
	MinRounds *int  `json:"minRounds"`
}

func classifyFields(v *classifyReply) fields {
	f := fields{Kind: kindClassify, Complete: v.Complete, Found: -1, MinRounds: -1}
	if v.Solvable != nil {
		f.HasSolv, f.Solvable = true, *v.Solvable
	}
	if v.MinRounds != nil {
		f.MinRounds = *v.MinRounds
	}
	return f
}

// decodeVerdict turns one reply body into its key-determined fields:
// a wire frame when the server answered in binary, JSON otherwise.
func decodeVerdict(kind byte, body []byte) (fields, error) {
	if wire.IsFrame(body) {
		v, err := wire.Unmarshal(body)
		if err != nil {
			return fields{}, err
		}
		return typedFields(v)
	}
	switch kind {
	case kindSolvable:
		var v wire.Solvable
		if err := json.Unmarshal(body, &v); err != nil {
			return fields{}, err
		}
		return solvableFields(&v), nil
	case kindNet:
		var v wire.NetSolvable
		if err := json.Unmarshal(body, &v); err != nil {
			return fields{}, err
		}
		return netFields(&v), nil
	default:
		var v classifyReply
		if err := json.Unmarshal(body, &v); err != nil {
			return fields{}, err
		}
		return classifyFields(&v), nil
	}
}

// typedFields normalizes a decoded frame verdict.
func typedFields(v any) (fields, error) {
	switch t := v.(type) {
	case *wire.Solvable:
		return solvableFields(t), nil
	case *wire.NetSolvable:
		return netFields(t), nil
	}
	return fields{}, fmt.Errorf("unexpected verdict type %T", v)
}

// want is an item's oracle: what the paper says its verdict must be.
// Every check is derived from a result of the source paper, never from
// a previous run of the program.
type want struct {
	Kind byte
	// Solvable endpoint.
	Horizon int    // the horizon the verdict must report (fixed runs and found searches)
	Unsolv  bool   // the verdict must be unsolvable
	Solv    bool   // the verdict must be solvable
	Configs string // exact configuration count ("" = not checked)
	MinFind int    // minRounds search: expected smallest horizon, 0 = none within the cap
	Search  bool   // the item is a minRounds search
	// Network endpoint.
	F, Cut int // losses per round and the benchmark's own brute-force c(G)
	// Classify endpoint.
	ClassMin   int  // expected bounded horizon, -1 = none
	Partial    bool // Theorem III.8 does not cover the scheme (not a Γ-subscheme)
	ClassSolv  bool // whether to check the classifier's solvability
	ClassSolvV bool
}

// check compares a verdict's fields against the oracle.
func (w want) check(f fields) error {
	if f.Kind != w.Kind {
		return fmt.Errorf("verdict kind %q, want %q", f.Kind, w.Kind)
	}
	switch w.Kind {
	case kindSolvable:
		if w.Search {
			// Solvability is monotone in the horizon, so a search finds
			// the first solvable horizon or nothing.
			found := f.Found == 1
			if f.Found < 0 {
				return fmt.Errorf("minRounds reply without found")
			}
			if w.MinFind == 0 && found {
				return fmt.Errorf("minRounds found horizon %d, want none", f.Horizon)
			}
			if w.MinFind > 0 && (!found || f.Horizon != w.MinFind) {
				return fmt.Errorf("minRounds found=%v horizon %d, want %d", found, f.Horizon, w.MinFind)
			}
			if f.Solvable != found {
				return fmt.Errorf("solvable=%v disagrees with found=%v", f.Solvable, found)
			}
			return nil
		}
		if f.Found >= 0 {
			return fmt.Errorf("fixed-horizon reply carries found")
		}
		if f.Horizon != w.Horizon {
			return fmt.Errorf("horizon %d, want %d", f.Horizon, w.Horizon)
		}
		if w.Unsolv && f.Solvable {
			return fmt.Errorf("solvable at horizon %d, want unsolvable", w.Horizon)
		}
		if w.Solv && !f.Solvable {
			return fmt.Errorf("unsolvable at horizon %d, want solvable", w.Horizon)
		}
		if w.Configs != "" && f.Configs != w.Configs {
			return fmt.Errorf("configs %s at horizon %d, want %s", f.Configs, w.Horizon, w.Configs)
		}
	case kindNet:
		if f.F != w.F || f.Rounds != w.Horizon {
			return fmt.Errorf("net reply for f=%d r=%d, want f=%d r=%d", f.F, f.Rounds, w.F, w.Horizon)
		}
		if f.Cut != w.Cut {
			return fmt.Errorf("edgeConnectivity %d, brute-force min cut %d", f.Cut, w.Cut)
		}
		if f.TheoremV1 != (w.F < w.Cut) {
			return fmt.Errorf("theoremV1=%v with f=%d, c(G)=%d", f.TheoremV1, w.F, w.Cut)
		}
		if w.F >= w.Cut && f.Solvable {
			return fmt.Errorf("solvable with f=%d ≥ c(G)=%d (Theorem V.1)", w.F, w.Cut)
		}
	case kindClassify:
		if f.Complete == w.Partial {
			return fmt.Errorf("classifier complete=%v, want %v", f.Complete, !w.Partial)
		}
		if f.MinRounds != w.ClassMin {
			return fmt.Errorf("classify minRounds %d, want %d", f.MinRounds, w.ClassMin)
		}
		if w.ClassSolv && (!f.HasSolv || f.Solvable != w.ClassSolvV) {
			return fmt.Errorf("classify solvable=%v (present %v), want %v", f.Solvable, f.HasSolv, w.ClassSolvV)
		}
	}
	return nil
}

// Section IV round complexities of the named schemes: the smallest
// horizon at which each is solvable, 0 for the unsolvable R1 = Γ^ω and
// S2 = Σ^ω (Theorem III.8 and Lemma III.2).
var namedMinRounds = map[string]int{"S0": 1, "TW": 1, "TB": 1, "C1": 2, "S1": 2, "R1": 0, "S2": 0}

var namedSchemes = []string{"S0", "TW", "TB", "C1", "S1", "R1", "S2"}

// prefixConfigs is the configuration count of a scheme whose r-round
// prefixes are all words over k letters: 4 input pairs times k^r
// scenarios (Lemma III.2 for Γ, k=3; Cor. III.5 for Σ, k=4).
func prefixConfigs(k, r int) string {
	n := new(big.Int).Exp(big.NewInt(int64(k)), big.NewInt(int64(r)), nil)
	return n.Mul(n, big.NewInt(4)).String()
}

// minCut is the edge connectivity c(G) of the graph on n vertices with
// the given undirected edges, by brute force over every vertex
// bipartition — independent of the program's own min-cut code. It is 0
// for a disconnected graph.
func minCut(n int, edges [][2]int) int {
	best := len(edges)
	for s := 1; s < 1<<n-1; s++ {
		if s&1 == 0 {
			continue // each bipartition once: vertex 0 on the s side
		}
		cross := 0
		for _, e := range edges {
			if (s>>e[0])&1 != (s>>e[1])&1 {
				cross++
			}
		}
		best = min(best, cross)
	}
	return best
}
