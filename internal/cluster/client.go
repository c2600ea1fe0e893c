package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	bipartite "repro"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/wire"
)

// ErrNoReplicas is returned when no configured replica is currently a
// ring member — nothing is reachable to serve the request.
var ErrNoReplicas = errors.New("cluster: no healthy replicas")

// Options tunes the Client. The zero value is usable.
type Options struct {
	// VNodes and LoadFactor configure the consistent-hash ring; zero
	// values take the ring package defaults.
	VNodes     int
	LoadFactor float64
	// HTTPClient is the transport to the replicas; nil uses a client with
	// a 30s overall timeout.
	HTTPClient *http.Client
	// MaxRetries bounds the retry attempts after the first try of a
	// retryable request; 0 means 4.
	MaxRetries int
	// RetryBase seeds the exponential backoff (base·2^attempt plus up to
	// one base of jitter); 0 means 10ms.
	RetryBase time.Duration
	// RetryMax caps one backoff sleep, Retry-After hints included; 0
	// means 2s.
	RetryMax time.Duration
	// HedgeDelay is how long a single /match may run before an identical
	// hedge request is fired at another replica holding the graph. 0
	// derives the delay from the observed p99 match latency (with a 25ms
	// floor while the histogram is cold); negative disables hedging.
	HedgeDelay time.Duration
	// FanOut caps how many replicas a best-of-K ensemble fans out across;
	// 0 means every healthy replica (never more than K).
	FanOut int
}

func (o Options) maxRetries() int {
	if o.MaxRetries == 0 {
		return 4
	}
	return o.MaxRetries
}

func (o Options) retryBase() time.Duration {
	if o.RetryBase == 0 {
		return 10 * time.Millisecond
	}
	return o.RetryBase
}

func (o Options) retryMax() time.Duration {
	if o.RetryMax == 0 {
		return 2 * time.Second
	}
	return o.RetryMax
}

// Client routes matching traffic across a fleet of matchserve replicas
// sharded by graph id on a bounded-load consistent-hash ring. It is safe
// for concurrent use.
type Client struct {
	opt Options
	hc  *http.Client
	met *metrics.Registry

	mu      sync.Mutex
	ring    *ring.Ring
	urls    []string                   // configured replicas, sorted
	down    map[string]bool            // passively/actively detected unhealthy
	level   map[string]string          // last probed watchdog level
	holders map[string]map[string]bool // graph id → replicas holding a copy
	payload map[string][]byte          // graph id → last registration body (migration fallback)
	stale   map[string]bool            // graph id → payload predates a PATCH

	nextID     atomic.Int64
	retries    atomic.Int64
	hedges     atomic.Int64
	hedgeWins  atomic.Int64
	migrations atomic.Int64
	failovers  atomic.Int64
	fanouts    atomic.Int64
}

// New builds a Client over the given replica base URLs (e.g.
// "http://10.0.0.3:8480"). All replicas start as ring members; call
// Probe to reconcile membership with reality.
func New(urls []string, opt Options) *Client {
	hc := opt.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{
		opt:     opt,
		hc:      hc,
		met:     metrics.NewRegistry(),
		ring:    ring.New(opt.VNodes, opt.LoadFactor),
		down:    make(map[string]bool),
		level:   make(map[string]string),
		holders: make(map[string]map[string]bool),
		payload: make(map[string][]byte),
		stale:   make(map[string]bool),
	}
	seen := make(map[string]bool)
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		c.urls = append(c.urls, u)
		c.ring.AddNode(u)
	}
	sort.Strings(c.urls)
	return c
}

// Stats is a point-in-time snapshot of the Client's routing counters.
type Stats struct {
	Replicas   int // configured
	Healthy    int // current ring members
	Keys       int // registered graph ids
	Moved      int // keys moved by the last rebalance
	Retries    int64
	Hedges     int64
	HedgeWins  int64
	Migrations int64
	Failovers  int64
	FanOuts    int64
}

func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Replicas:   len(c.urls),
		Healthy:    len(c.ring.Nodes()),
		Keys:       c.ring.Keys(),
		Moved:      c.ring.Moved(),
		Retries:    c.retries.Load(),
		Hedges:     c.hedges.Load(),
		HedgeWins:  c.hedgeWins.Load(),
		Migrations: c.migrations.Load(),
		Failovers:  c.failovers.Load(),
		FanOuts:    c.fanouts.Load(),
	}
}

// OwnerOf returns the ring owner of a registered graph id, or "" when
// the id is unknown or no replica is healthy.
func (c *Client) OwnerOf(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owner(id)
}

// Members returns the current ring membership (healthy replicas).
func (c *Client) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}

// Levels returns the last probed watchdog level per healthy replica.
func (c *Client) Levels() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.level))
	for u, l := range c.level {
		if !c.down[u] {
			out[u] = l
		}
	}
	return out
}

// Probe checks every configured replica's /healthz and reconciles ring
// membership: answering replicas (re)join, silent ones leave and their
// keys rebalance deterministically onto the survivors. Returns the
// healthy count. Probing is cheap enough to run every second or two;
// between probes, request failures mark replicas down passively.
func (c *Client) Probe(ctx context.Context) int {
	c.mu.Lock()
	urls := append([]string(nil), c.urls...)
	c.mu.Unlock()
	type verdict struct {
		url     string
		healthy bool
		level   string
	}
	verdicts := make([]verdict, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			v := verdict{url: u}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
			if err == nil {
				if resp, err := c.hc.Do(req); err == nil {
					var hz healthzReply
					if resp.StatusCode == http.StatusOK &&
						json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&hz) == nil {
						v.healthy, v.level = true, hz.Level
					}
					resp.Body.Close()
				}
			}
			verdicts[i] = v
		}(i, u)
	}
	wg.Wait()
	healthy := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range verdicts {
		if v.healthy {
			healthy++
			delete(c.down, v.url)
			c.level[v.url] = v.level
			c.ring.AddNode(v.url)
		} else {
			c.down[v.url] = true
			c.ring.RemoveNode(v.url)
		}
	}
	return healthy
}

// markDown passively removes a replica that failed to answer; the next
// successful Probe readmits it. Keys rebalance immediately so retries
// already have a surviving owner to fail over to.
func (c *Client) markDown(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down[url] {
		c.down[url] = true
		c.ring.RemoveNode(url)
		// The dead replica's copies are unreachable; forget them so
		// migration sources and hedge targets skip it.
		for _, hs := range c.holders {
			delete(hs, url)
		}
	}
}

// RegisterGraph registers a graph on its ring owner and returns its id
// (gs.ID when the caller chose one, a generated "c<n>" otherwise). The
// registration body is retained as the migration fallback of last resort,
// so the graph survives even its sole holder dying.
func (c *Client) RegisterGraph(ctx context.Context, gs wire.GraphSpec) (string, error) {
	id := gs.ID
	if id == "" {
		id = "c" + strconv.FormatInt(c.nextID.Add(1), 10)
		gs.ID = id
	}
	body, err := json.Marshal(gs)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.ring.AddKey(id)
	c.payload[id] = body
	delete(c.stale, id)
	c.holders[id] = make(map[string]bool)
	c.mu.Unlock()
	if _, err := c.placeOnOwner(ctx, id); err != nil {
		return "", err
	}
	return id, nil
}

// DeleteGraph drops a graph from every replica holding it and from the
// ring. Unknown ids return false.
func (c *Client) DeleteGraph(ctx context.Context, id string) (bool, error) {
	c.mu.Lock()
	hs, known := c.holders[id]
	targets := make([]string, 0, len(hs))
	for u := range hs {
		targets = append(targets, u)
	}
	sort.Strings(targets)
	delete(c.holders, id)
	delete(c.payload, id)
	delete(c.stale, id)
	c.ring.RemoveKey(id)
	c.mu.Unlock()
	if !known {
		return false, nil
	}
	var firstErr error
	for _, u := range targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u+"/graph/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			c.markDown(u) // best effort: a dead replica's copy dies with it
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound && firstErr == nil {
			firstErr = fmt.Errorf("cluster: delete %s on %s: status %d", id, u, resp.StatusCode)
		}
	}
	return true, firstErr
}

// owner resolves the graph's current ring owner.
func (c *Client) owner(id string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.holders[id]; !ok {
		return "", fmt.Errorf("cluster: unknown graph %q", id)
	}
	o := c.ring.Owner(id)
	if o == "" {
		return "", ErrNoReplicas
	}
	return o, nil
}

// placeOnOwner makes sure the graph's ring owner holds a copy, migrating
// one over if needed, and returns the owner.
func (c *Client) placeOnOwner(ctx context.Context, id string) (string, error) {
	o, err := c.owner(id)
	if err != nil {
		return "", err
	}
	if err := c.ensureHolder(ctx, id, o); err != nil {
		return "", err
	}
	return o, nil
}

// ensureHolder replicates the graph onto node if it does not already hold
// it: exported from a live holder (which captures every PATCH applied so
// far), or re-registered from the retained registration body when no
// holder survives. The upsert-by-id POST makes concurrent migrations
// converge on the same copy.
func (c *Client) ensureHolder(ctx context.Context, id, node string) error {
	c.mu.Lock()
	hs, known := c.holders[id]
	if !known {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown graph %q", id)
	}
	if hs[node] {
		c.mu.Unlock()
		return nil
	}
	sources := make([]string, 0, len(hs))
	for u := range hs {
		if !c.down[u] {
			sources = append(sources, u)
		}
	}
	sort.Strings(sources)
	body := c.payload[id]
	c.mu.Unlock()

	var exported []byte
	for _, src := range sources {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, src+"/graph/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			c.markDown(src)
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && resp.StatusCode == http.StatusOK {
			exported = b
			break
		}
	}
	if exported == nil {
		if body == nil {
			return fmt.Errorf("cluster: graph %q has no live holder and no retained registration", id)
		}
		exported = body // pre-PATCH fallback; see stale
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/graph", bytes.NewReader(exported))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		c.markDown(node)
		return err
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: replicate %s to %s: status %d: %s", id, node, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	c.migrations.Add(1)
	c.mu.Lock()
	if hs, ok := c.holders[id]; ok {
		hs[node] = true
	}
	c.mu.Unlock()
	return nil
}

// liveHolders returns the healthy replicas currently holding the graph.
func (c *Client) liveHolders(id string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.holders[id]))
	for u := range c.holders[id] {
		if !c.down[u] {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// retryable reports whether an HTTP status is worth retrying elsewhere or
// later: 503 is the replica protecting itself (overload, shedding), 429
// the admission layer rating the request down — both come with Retry-After
// hints and both succeed on retry once pressure decays.
func retryableStatus(code int) bool {
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// replicaError is a non-2xx replica answer, carrying the status and any
// Retry-After hint so the retry loop can honor it.
type replicaError struct {
	status     int
	retryAfter time.Duration
	body       string
}

func (e *replicaError) Error() string {
	return fmt.Sprintf("replica status %d: %s", e.status, e.body)
}

// post sends one JSON POST and decodes the replica's answer, classifying
// failures for the retry loop: a transport error (replica unreachable —
// the caller marks it down), or a replicaError with status and
// Retry-After.
func (c *Client) post(ctx context.Context, url string, body []byte) (wire.MatchResponse, error) {
	var out wire.MatchResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		re := &replicaError{status: resp.StatusCode, body: strings.TrimSpace(string(b))}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs >= 0 {
				re.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return out, re
	}
	if out, err = wire.ReadMatch(resp.Body); err != nil {
		return out, fmt.Errorf("cluster: decode %s: %w", url, err)
	}
	return out, nil
}

// backoff sleeps the exponential-backoff-with-jitter delay for attempt a,
// floored at the replica's Retry-After hint and capped at RetryMax;
// returns false if ctx expires first.
func (c *Client) backoff(ctx context.Context, a int, hint time.Duration) bool {
	base := c.opt.retryBase()
	d := base << a
	if d > c.opt.retryMax() {
		d = c.opt.retryMax()
	}
	d += time.Duration(rand.Int63n(int64(base) + 1)) // full-jitter tail breaks retry synchrony
	if hint > d {
		d = hint
	}
	if d > c.opt.retryMax() {
		d = c.opt.retryMax()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// hedgeDelay resolves the hedging trigger: the configured delay, or the
// observed p99 single-match latency once enough samples exist (25ms floor
// while the histogram is cold, 1ms floor always — a hedge should never
// race the common case).
func (c *Client) hedgeDelay() time.Duration {
	if c.opt.HedgeDelay != 0 {
		return c.opt.HedgeDelay
	}
	s := c.met.Histogram("match").Snapshot()
	if s.Count < 16 {
		return 25 * time.Millisecond
	}
	d := s.P99
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Match routes one match request. Registered graphs go to their ring
// owner (migrating the graph there first when a rebalance moved the key);
// inline graphs spread statelessly over the members by seed. Fan-out
// eligible ensembles (best_of > 1, no refinement or target, no explicit
// sub-range) split across the healthy replicas and reduce; everything
// else runs as a single routed request with retry, backoff and hedging.
func (c *Client) Match(ctx context.Context, mr wire.MatchRequest) (wire.MatchResponse, error) {
	if fanEligible(&mr) {
		c.mu.Lock()
		n := len(c.ring.Nodes())
		c.mu.Unlock()
		if n > 1 {
			return c.fanMatch(ctx, mr)
		}
	}
	return c.singleMatch(ctx, mr)
}

// route resolves where a single request should run: the graph's owner
// (placed there first) for registered graphs, a seed-spread member for
// inline ones.
func (c *Client) route(ctx context.Context, mr *wire.MatchRequest) (string, error) {
	if mr.Graph != "" {
		return c.placeOnOwner(ctx, mr.Graph)
	}
	c.mu.Lock()
	node := c.ring.Locate("inline/" + mr.Algorithm + "/" + strconv.FormatUint(mr.Seed, 16))
	c.mu.Unlock()
	if node == "" {
		return "", ErrNoReplicas
	}
	return node, nil
}

// singleMatch is the routed request with the full defensive loop:
// per-attempt routing (so a failover lands on the key's new owner),
// hedging against a second holder, Retry-After-honoring backoff.
func (c *Client) singleMatch(ctx context.Context, mr wire.MatchRequest) (wire.MatchResponse, error) {
	body, err := json.Marshal(&mr)
	if err != nil {
		return wire.MatchResponse{}, err
	}
	var lastErr error
	for a := 0; a <= c.opt.maxRetries(); a++ {
		if a > 0 {
			c.retries.Add(1)
		}
		node, err := c.route(ctx, &mr)
		if err != nil {
			if errors.Is(err, ErrNoReplicas) && a < c.opt.maxRetries() && c.backoff(ctx, a, 0) {
				lastErr = err
				continue
			}
			return wire.MatchResponse{}, err
		}
		start := time.Now()
		resp, node, err := c.hedged(ctx, &mr, node, body)
		if err == nil {
			c.met.Histogram("match").Observe(time.Since(start))
			resp.Replica = node
			return resp, nil
		}
		lastErr = err
		var re *replicaError
		switch {
		case errors.As(err, &re):
			if !retryableStatus(re.status) {
				return wire.MatchResponse{}, err
			}
			if !c.backoff(ctx, a, re.retryAfter) {
				return wire.MatchResponse{}, ctx.Err()
			}
		case ctx.Err() != nil:
			return wire.MatchResponse{}, ctx.Err()
		default:
			// Transport failure: the replica is gone. Mark it down — the
			// ring rebalances its keys — and retry immediately against the
			// new owner; no backoff, the failure was not load.
			c.markDown(node)
			c.failovers.Add(1)
		}
	}
	return wire.MatchResponse{}, fmt.Errorf("cluster: match failed after %d attempts: %w", c.opt.maxRetries()+1, lastErr)
}

// hedged sends the request to node and, once the hedge delay passes with
// no answer, fires one identical request at another live holder of the
// graph; the first success wins and the loser is canceled. Safe because
// /match is a pure function of (graph, spec) — both answers are
// bit-identical, only the latency differs. Returns the answering node.
func (c *Client) hedged(ctx context.Context, mr *wire.MatchRequest, node string, body []byte) (wire.MatchResponse, string, error) {
	delay := c.hedgeDelay()
	if delay < 0 {
		resp, err := c.post(ctx, node+"/match", body)
		return resp, node, err
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type answer struct {
		resp wire.MatchResponse
		node string
		err  error
	}
	ch := make(chan answer, 2)
	send := func(n string) {
		resp, err := c.post(hctx, n+"/match", body)
		ch <- answer{resp: resp, node: n, err: err}
	}
	go send(node)
	inflight := 1
	t := time.NewTimer(delay)
	defer t.Stop()
	var firstErr error
	for {
		select {
		case <-t.C:
			if second := c.hedgeTarget(mr, node); second != "" {
				c.hedges.Add(1)
				inflight++
				go send(second)
			}
		case a := <-ch:
			inflight--
			if a.err == nil {
				if a.node != node {
					c.hedgeWins.Add(1)
				}
				return a.resp, a.node, nil
			}
			if firstErr == nil || a.node == node {
				firstErr = a.err
			}
			if a.err != nil && !isReplicaError(a.err) && hctx.Err() == nil {
				c.markDown(a.node)
			}
			if inflight == 0 {
				return wire.MatchResponse{}, node, firstErr
			}
		case <-ctx.Done():
			return wire.MatchResponse{}, node, ctx.Err()
		}
	}
}

func isReplicaError(err error) bool {
	var re *replicaError
	return errors.As(err, &re)
}

// hedgeTarget picks the hedge's second replica: a live holder of the
// graph other than the primary (replicating on the hedge path would add
// latency exactly when we are trying to hide it), or for inline requests
// any other member.
func (c *Client) hedgeTarget(mr *wire.MatchRequest, primary string) string {
	if mr.Graph != "" {
		for _, u := range c.liveHolders(mr.Graph) {
			if u != primary {
				return u
			}
		}
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range c.ring.Nodes() {
		if u != primary {
			return u
		}
	}
	return ""
}

// fanMatch splits a best-of-K ensemble into contiguous seed sub-ranges
// across the healthy replicas, runs each slice as a routed single request
// (so every slice gets the same retry/hedge/failover protection), and
// reduces the sub-range winners with the library's rule — strict
// improvement on the objective in seed order, which keeps ties on the
// smallest winner seed. Sub-range winners report absolute seeds and each
// candidate is a pure function of (graph, algorithm, seed), so the
// reduction is bit-identical to the full sweep on one replica.
func (c *Client) fanMatch(ctx context.Context, mr wire.MatchRequest) (wire.MatchResponse, error) {
	members := c.Members()
	if len(members) == 0 {
		return wire.MatchResponse{}, ErrNoReplicas
	}
	n := len(members)
	if c.opt.FanOut > 0 && n > c.opt.FanOut {
		n = c.opt.FanOut
	}
	if n > mr.BestOf {
		n = mr.BestOf
	}
	if n <= 1 {
		return c.singleMatch(ctx, mr)
	}
	// Replicate the graph to every participating replica up front; a
	// replica we cannot place the graph on simply drops out of the split.
	if mr.Graph != "" {
		placed := members[:0:0]
		for _, u := range members {
			if err := c.ensureHolder(ctx, mr.Graph, u); err == nil {
				placed = append(placed, u)
			}
		}
		if len(placed) == 0 {
			// No replica could take a copy (e.g. the sole holder just died
			// and no registration is retained): fall back to the routed
			// single path, which reports the precise error.
			return c.singleMatch(ctx, mr)
		}
		members = placed
		if len(members) < n {
			n = len(members)
		}
		if n == 1 {
			return c.singleMatch(ctx, mr)
		}
	}
	K := mr.BestOf
	per, extra := K/n, K%n
	type part struct {
		resp wire.MatchResponse
		err  error
	}
	parts := make([]part, n)
	var wg sync.WaitGroup
	start := time.Now()
	off := 0
	for p := 0; p < n; p++ {
		count := per
		if p < extra {
			count++
		}
		sub := mr
		sub.SeedOffset, sub.SeedCount = off, count
		off += count
		wg.Add(1)
		go func(p int, sub wire.MatchRequest, preferred string) {
			defer wg.Done()
			// Prefer the replica the slice was planned for; fall back to the
			// generic routed path (owner + failover) when it died mid-flight.
			body, err := json.Marshal(&sub)
			if err == nil {
				if resp, perr := c.post(ctx, preferred+"/match", body); perr == nil {
					resp.Replica = preferred
					parts[p] = part{resp: resp}
					return
				} else if !isReplicaError(perr) && ctx.Err() == nil {
					c.markDown(preferred)
					c.failovers.Add(1)
				}
			}
			resp, rerr := c.singleMatch(ctx, sub)
			parts[p] = part{resp: resp, err: rerr}
		}(p, sub, members[p%len(members)])
	}
	wg.Wait()
	// The auction's winner objective is matched weight, not cardinality.
	weighted := mr.Algorithm == "auction"
	var out wire.MatchResponse
	have := false
	candidates := 0
	for p := range parts {
		if parts[p].err != nil {
			return wire.MatchResponse{}, fmt.Errorf("cluster: fan-out slice %d: %w", p, parts[p].err)
		}
		r := parts[p].resp
		candidates += r.CandidatesRun
		improved := !have
		if have {
			if weighted {
				improved = r.MatchedWeight > out.MatchedWeight
			} else {
				improved = r.Size > out.Size
			}
		}
		if improved {
			keep := r
			out = keep
			have = true
		}
	}
	out.CandidatesRun = candidates
	out.Ms = float64(time.Since(start).Microseconds()) / 1000
	c.fanouts.Add(1)
	return out, nil
}

// MatchBatch routes a batch: fan-out eligible entries run as fanned
// ensembles, the rest group into one sub-batch per owning replica. A
// sub-batch whose replica dies mid-flight is recovered entry by entry
// through the routed single path, so one replica failure costs latency,
// never answers. In-band retryable rejections (the replica shed an entry
// inside an otherwise successful envelope) are retried the same way.
// Responses come back in request order.
func (c *Client) MatchBatch(ctx context.Context, reqs []wire.MatchRequest) []wire.MatchResponse {
	out := make([]wire.MatchResponse, len(reqs))
	groups := make(map[string][]int)
	var fanIdx []int
	for i := range reqs {
		if fanEligible(&reqs[i]) {
			fanIdx = append(fanIdx, i)
			continue
		}
		node, err := c.route(ctx, &reqs[i])
		if err != nil {
			out[i] = wire.MatchResponse{Error: err.Error()}
			continue
		}
		groups[node] = append(groups[node], i)
	}
	var wg sync.WaitGroup
	for _, i := range fanIdx {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Match(ctx, reqs[i])
			if err != nil {
				resp = wire.MatchResponse{Error: err.Error()}
			}
			out[i] = resp
		}(i)
	}
	for node, idxs := range groups {
		wg.Add(1)
		go func(node string, idxs []int) {
			defer wg.Done()
			c.subBatch(ctx, node, reqs, idxs, out)
		}(node, idxs)
	}
	wg.Wait()
	return out
}

// subBatch sends one per-replica sub-batch and recovers failed entries
// individually.
func (c *Client) subBatch(ctx context.Context, node string, reqs []wire.MatchRequest, idxs []int, out []wire.MatchResponse) {
	env := wire.BatchRequest{Requests: make([]wire.MatchRequest, len(idxs))}
	for k, i := range idxs {
		env.Requests[k] = reqs[i]
	}
	body, err := json.Marshal(&env)
	redo := idxs // entries to re-route individually (redo)
	if err == nil {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, node+"/match/batch", bytes.NewReader(body))
		if rerr == nil {
			req.Header.Set("Content-Type", "application/json")
			resp, derr := c.hc.Do(req)
			if derr != nil {
				if ctx.Err() == nil {
					// The replica died with the whole sub-batch in flight:
					// mark it down and redo below.
					c.markDown(node)
					c.failovers.Add(1)
				}
			} else {
				be, decodeErr := wire.ReadBatch(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && decodeErr == nil && len(be.Responses) == len(idxs) {
					redo = redo[:0]
					for k, i := range idxs {
						r := be.Responses[k]
						r.Replica = node
						if r.Error != "" && retryableReplicaMessage(r.Error) {
							redo = append(redo, i)
							continue
						}
						out[i] = r
					}
				}
				// Non-200 envelopes (503 admission, 413, …) leave redo as
				// the full index set: every entry re-routes individually.
			}
		}
	}
	var wg sync.WaitGroup
	for _, i := range redo {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.retries.Add(1)
			resp, err := c.singleMatch(ctx, reqs[i])
			if err != nil {
				resp = wire.MatchResponse{Error: err.Error()}
			}
			out[i] = resp
		}(i)
	}
	wg.Wait()
}

// retryableReplicaMessage classifies an in-band batch entry error: the
// engine's admission errors travel as strings inside a 200 envelope, so
// the Client matches them against the library's own error texts (same
// module, same strings) rather than guessing.
func retryableReplicaMessage(msg string) bool {
	return strings.Contains(msg, bipartite.ErrOverloaded.Error()) ||
		strings.Contains(msg, bipartite.ErrShed.Error()) ||
		strings.Contains(msg, bipartite.ErrRateLimited.Error())
}

// Patch forwards a PATCH /graph/{id} body to the graph's owner and
// returns the replica's status code and response body verbatim. PATCH
// mutates state, so the Client is deliberately conservative: it retries
// only 503 rejections (the replica refused at admission, nothing was
// applied) and transport errors where the connection could not be opened;
// after a successful apply the other holders' copies are stale, so they
// are invalidated and the next fan-out re-replicates from the owner.
func (c *Client) Patch(ctx context.Context, id string, body []byte) (int, []byte, error) {
	var lastErr error
	for a := 0; a <= c.opt.maxRetries(); a++ {
		if a > 0 {
			c.retries.Add(1)
		}
		owner, err := c.placeOnOwner(ctx, id)
		if err != nil {
			if errors.Is(err, ErrNoReplicas) && a < c.opt.maxRetries() && c.backoff(ctx, a, 0) {
				lastErr = err
				continue
			}
			return 0, nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPatch, owner+"/graph/"+id, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			c.markDown(owner)
			c.failovers.Add(1)
			lastErr = err
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && a < c.opt.maxRetries() {
			hint := time.Duration(0)
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.ParseInt(ra, 10, 64); perr == nil {
					hint = time.Duration(secs) * time.Second
				}
			}
			if !c.backoff(ctx, a, hint) {
				return 0, nil, ctx.Err()
			}
			lastErr = fmt.Errorf("cluster: patch %s: status 503", id)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			c.mu.Lock()
			c.stale[id] = true // the retained registration predates this PATCH
			c.holders[id] = map[string]bool{owner: true}
			c.mu.Unlock()
		}
		return resp.StatusCode, b, nil
	}
	return 0, nil, fmt.Errorf("cluster: patch %s failed: %w", id, lastErr)
}

// ExportGraph proxies GET /graph/{id} from a live holder.
func (c *Client) ExportGraph(ctx context.Context, id string) (int, []byte, error) {
	holders := c.liveHolders(id)
	if len(holders) == 0 {
		if _, err := c.placeOnOwner(ctx, id); err != nil {
			return 0, nil, err
		}
		holders = c.liveHolders(id)
	}
	var lastErr error
	for _, u := range holders {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/graph/"+id, nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			c.markDown(u)
			lastErr = err
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: unknown graph %q", id)
	}
	return 0, nil, lastErr
}
