package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// call is one scheduled HTTP request of an open-loop phase.
type call struct {
	at     time.Duration // due time, as an offset from the phase start
	method string
	path   string
	body   []byte
}

// outcome is what the generator observed for one call. Every latency is
// measured from due, the scheduled send time, so a stall is charged to
// each request queued behind it (no coordinated omission).
type outcome struct {
	due    time.Time // scheduled send time
	pulled time.Time // when a caller took the call off the queue
	sent   time.Time // when the request went out
	done   time.Time // when the response body was fully read
	status int
	body   []byte
	err    error
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// connWait is how long the call waited for a free caller after it was due.
func (o *outcome) connWait() time.Duration { return max(o.pulled.Sub(o.due), 0) }

// lag is how late the generator itself sent the call once a caller held
// it: its own scheduling error, which a valid run keeps well under a
// millisecond.
func (o *outcome) lag() time.Duration {
	ready := o.due
	if o.pulled.After(ready) {
		ready = o.pulled
	}
	return o.sent.Sub(ready)
}

// timerSlack is how early a caller wakes before a call is due; it spins
// out the rest. Go's timers can fire up to a millisecond late on an idle
// Linux host (the poller sleeps in whole milliseconds), which would
// otherwise add up to a millisecond of the generator's own delay to every
// request.
const timerSlack = 1200 * time.Microsecond

// waitUntil returns at t (or when ctx ends).
func waitUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
	for time.Now().Before(t) && ctx.Err() == nil {
	}
}

// newClient returns an HTTP client that keeps at most conns connections
// to each host: the load never uses more connections than callers.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends calls to base on their schedule with conns callers and
// returns one outcome per call, in call order. Each free caller takes the
// next call in schedule order and sends it when it is due; a call that
// finds every caller busy waits, and the wait counts toward its latency.
// It returns once every call has completed.
func openLoop(ctx context.Context, client *http.Client, base string, calls []call, conns int) []outcome {
	out := make([]outcome, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				o := &out[i]
				o.due = start.Add(calls[i].at)
				o.pulled = time.Now()
				waitUntil(ctx, o.due)
				o.sent = time.Now()
				o.status, o.body, o.err = send(ctx, client, base, calls[i])
				o.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends the calls one at a time, each as soon as the previous
// one completed: the unloaded latency of the same requests.
func closedLoop(ctx context.Context, client *http.Client, base string, calls []call) []outcome {
	out := make([]outcome, len(calls))
	for i, c := range calls {
		o := &out[i]
		o.due = time.Now()
		o.pulled, o.sent = o.due, o.due
		o.status, o.body, o.err = send(ctx, client, base, c)
		o.done = time.Now()
	}
	return out
}

func send(ctx context.Context, client *http.Client, base string, c call) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, c.method, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, body, nil
}
