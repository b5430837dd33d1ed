package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// request is one HTTP exchange of a run: a single item, or a batch of
// items sent through client.SolveBatch. A single item's reply encoding
// is part of the seeded list, so the JSON/binary split does not depend
// on which connection happens to take the request.
type request struct {
	items  []item
	batch  bool
	binary bool // single item: Accept binary verdicts
}

// countingTransport counts response body bytes on one connection.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// conn is one load-generator connection: a client whose transport keeps
// exactly one keep-alive connection to the target, so each worker of
// the closed loop owns one TCP connection for the whole run.
type conn struct {
	tr  *countingTransport
	hc  *http.Client
	cl  *client.Client // batch requests
	buf bytes.Buffer
}

func newConn(base string) *conn {
	tr := &countingTransport{base: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	hc := &http.Client{Transport: tr}
	return &conn{tr: tr, hc: hc,
		cl: client.New(base, client.Options{HTTPClient: hc, MaxAttempts: 1})}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// book checks every verdict a run receives: against the item's paper
// oracle, and against the first reply seen for the same key in any
// encoding, since a verdict is a function of its canonical key.
type book struct {
	mu       sync.Mutex
	seen     map[string]fields
	wrong    int
	examples []string
}

func newBook() *book { return &book{seen: map[string]fields{}} }

func (b *book) verify(it *item, f fields) bool {
	err := it.Want.check(f)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if prev, ok := b.seen[it.Key]; !ok {
			b.seen[it.Key] = f
		} else if prev != f {
			err = fmt.Errorf("replies for one key differ: %+v vs %+v", prev, f)
		}
	}
	if err != nil {
		b.wrong++
		if len(b.examples) < 5 {
			b.examples = append(b.examples, fmt.Sprintf("%s %s: %v", it.Path, it.Body, err))
		}
		return false
	}
	return true
}

// outcome is what one request of a run produced.
type outcome struct {
	end      time.Duration // completion, relative to the run's start
	lat      time.Duration
	verdicts int // items answered with a verdict that passed the oracles
	failed   int // items that failed: transport, status, per-item error or oracle
}

// runner drives the closed loop: each connection sends its next request
// only once the previous reply is fully read and checked.
type runner struct {
	base  string
	conns []*conn
	book  *book
	errMu sync.Mutex
	errs  []string // first few transport/status failures
}

func (r *runner) noteErr(err error) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// run works through reqs in order from start, each connection taking
// the next unsent request, until all are answered or, when stopAt is
// nonzero, no request is sent after stopAt. It returns the outcomes of
// the requests sent, which are a prefix of reqs, and the wall time they
// took.
func (r *runner) run(ctx context.Context, reqs []request, start time.Time, stopAt time.Duration) (outs []outcome, wall time.Duration) {
	var next atomic.Int64
	per := make([][]outcome, len(r.conns))
	var wg sync.WaitGroup
	for ci, c := range r.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				if stopAt > 0 && time.Since(start) >= stopAt {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				v, f := r.do(ctx, c, &reqs[i])
				t1 := time.Now()
				per[ci] = append(per[ci], outcome{end: t1.Sub(start), lat: t1.Sub(t0), verdicts: v, failed: f})
			}
		}(ci, c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, o := range per {
		outs = append(outs, o...)
	}
	return outs, wall
}

func (r *runner) do(ctx context.Context, c *conn, q *request) (verdicts, failed int) {
	if q.batch {
		return r.doBatch(ctx, c, q.items)
	}
	it := &q.items[0]
	if err := r.single(ctx, c, it, q.binary); err != nil {
		r.noteErr(err)
		return 0, 1
	}
	return 1, 0
}

func (r *runner) single(ctx context.Context, c *conn, it *item, binary bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+it.Path, bytes.NewReader(it.Body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if binary {
		req.Header.Set("Accept", wire.MediaTypeVerdict)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", it.Path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	f, err := decodeVerdict(it.Want.Kind, c.buf.Bytes())
	if err != nil {
		return fmt.Errorf("%s: decoding reply: %w", it.Path, err)
	}
	if !r.book.verify(it, f) {
		return errWrongVerdict
	}
	return nil
}

var errWrongVerdict = fmt.Errorf("wrong verdict")

// doBatch sends items as one /v1/solve/batch through client.SolveBatch
// and checks every streamed line; items never answered count as failed.
func (r *runner) doBatch(ctx context.Context, c *conn, items []item) (verdicts, failed int) {
	bis := make([]client.BatchItem, len(items))
	for i := range items {
		bis[i] = items[i].Batch
	}
	answered := make([]bool, len(items))
	err := c.cl.SolveBatch(ctx, bis, func(v client.BatchVerdict) error {
		if v.Index < 0 || v.Index >= len(items) || answered[v.Index] {
			return fmt.Errorf("batch line with bad or repeated index %d", v.Index)
		}
		answered[v.Index] = true
		it := &items[v.Index]
		if v.Status != http.StatusOK {
			r.noteErr(fmt.Errorf("batch item %d: status %d: %s", v.Index, v.Status, v.Error))
			failed++
			return nil
		}
		var f fields
		var derr error
		if v.Decoded != nil {
			f, derr = typedFields(v.Decoded)
		} else {
			f, derr = decodeVerdict(it.Want.Kind, v.Verdict)
		}
		if derr != nil {
			r.noteErr(fmt.Errorf("batch item %d: %w", v.Index, derr))
			failed++
			return nil
		}
		if r.book.verify(it, f) {
			verdicts++
		} else {
			failed++
		}
		return nil
	})
	if err != nil {
		r.noteErr(err)
	}
	for _, a := range answered {
		if !a {
			failed++
		}
	}
	return verdicts, failed
}
