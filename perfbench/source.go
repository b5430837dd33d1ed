package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"

	"repro/internal/serve"
)

// source is a workload's seeded request stream. warm returns the next
// unmeasured warm-up pass and take the next n measured requests; both
// continue one deterministic sequence, so a seed fixes every item a run
// sends, in order.
type source struct {
	// store is the warm store every node boots from; "" gives each boot
	// a fresh, empty one.
	store string
	warm  func() ([]request, error)
	take  func(n int) ([]request, error)
}

func singles(items []item) []request {
	reqs := make([]request, len(items))
	for i := range items {
		reqs[i] = request{items: items[i : i+1]}
	}
	return alternate(reqs)
}

// alternate asks for binary replies on every other request of a list,
// starting with JSON: the JSON/binary split of single-item requests is
// fixed by the list, half and half.
func alternate(reqs []request) []request {
	for i := range reqs {
		reqs[i].binary = i%2 == 1
	}
	return reqs
}

// hitsSource bakes the hits universe into a warm store with the code
// under test, then draws requests from it: a class with equal weights,
// as capbench's default -mix weighs its cacheable classes
// (solvable=2,classify=2,netsolve=2), then an item of that class with
// Zipf(1) popularity.
func hitsSource(rng *rand.Rand, dir string, warmup int) (*source, error) {
	pools, err := hitsUniverse(rng)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(dir, "hits.store")
	if err := bake(slices.Concat(pools[:]...), store); err != nil {
		return nil, err
	}
	z := newZipf(rng, hitsPoolSize)
	take := func(n int) ([]request, error) {
		reqs := make([]request, n)
		for i := range reqs {
			pool, k := pools[rng.Intn(len(pools))], z.next()
			reqs[i] = request{items: pool[k : k+1]}
		}
		return alternate(reqs), nil
	}
	return &source{store: store, take: take, warm: func() ([]request, error) {
		return take(warmup)
	}}, nil
}

// bake computes every item once on an in-process capserved node backed
// by a warm store at path, checking each verdict, and closes the store:
// the node the hits workload boots then loads all of it.
func bake(items []item, path string) error {
	s := serve.New(serve.Config{WarmStorePath: path})
	h := s.Handler()
	bk := newBook()
	for i := range items {
		it := &items[i]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, it.Path, bytes.NewReader(it.Body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("baking %s %s: status %d: %s", it.Path, it.Body, rec.Code, rec.Body.Bytes())
		}
		f, err := decodeVerdict(it.Want.Kind, rec.Body.Bytes())
		if err != nil {
			return fmt.Errorf("baking %s %s: %w", it.Path, it.Body, err)
		}
		if !bk.verify(it, f) {
			return fmt.Errorf("baking: wrong verdict: %s", bk.examples[0])
		}
	}
	// Drain closes the warm store; the server never listened, so there
	// is nothing else to shut down.
	return s.Drain(&http.Server{})
}

// coldSource streams distinct items, one per request: every request is
// a cache miss.
func coldSource(draw func(*rand.Rand) func() (item, error)) func(*rand.Rand, string, int) (*source, error) {
	return func(rng *rand.Rand, _ string, warmup int) (*source, error) {
		g := newDistinctGen(draw(rng))
		take := func(n int) ([]request, error) {
			items, err := g.take(n)
			if err != nil {
				return nil, err
			}
			return singles(items), nil
		}
		return &source{take: take, warm: func() ([]request, error) {
			return take(warmup)
		}}, nil
	}
}

// Shape of cluster-batch: batches of clusterBatch items (capbench's
// default -batch-size), each item a repeat with probability 6/10 and
// otherwise a distinct symbolic miss that the coordinator routes to its
// shard. 6/10 is the weight of the cacheable classes in capbench's
// default -mix (solvable=2,classify=2,netsolve=2 against heavy=4).
// Repeats come from a hot set of clusterHot verdicts that every boot's
// warm-up puts in the coordinator cache; its size is an assumption.
const (
	clusterBatch      = 16
	clusterHot        = 256
	clusterRepeatOf10 = 6
)

func clusterSource(rng *rand.Rand, _ string, warmup int) (*source, error) {
	g := newDistinctGen(coldSymbolicDraw(rng))
	hot, err := g.take(clusterHot)
	if err != nil {
		return nil, err
	}
	mixed := func(n int) ([]request, error) {
		reqs := make([]request, n)
		for i := range reqs {
			items := make([]item, clusterBatch)
			for j := range items {
				if rng.Intn(10) < clusterRepeatOf10 {
					items[j] = hot[rng.Intn(len(hot))]
				} else if items[j], err = g.next(); err != nil {
					return nil, err
				}
			}
			reqs[i] = request{items: items, batch: true}
		}
		return reqs, nil
	}
	warm := func() ([]request, error) {
		var reqs []request
		for i := 0; i < len(hot); i += clusterBatch {
			reqs = append(reqs, request{items: hot[i:min(i+clusterBatch, len(hot))], batch: true})
		}
		more, err := mixed(warmup)
		return append(reqs, more...), err
	}
	return &source{take: mixed, warm: warm}, nil
}
