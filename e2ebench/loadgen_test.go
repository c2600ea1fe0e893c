package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStall checks that the open loop has no coordinated
// omission: the server stalls once for 200 ms, and every request scheduled
// during the stall must be charged its whole wait from its due time, not
// only the time after a caller finally sent it.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // requests arriving during the stall queue behind it
		once.Do(func() { time.Sleep(stall) })
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	const every = 5 * time.Millisecond
	calls := make([]call, 60) // the first 40 are due during the stall
	for i := range calls {
		calls[i] = call{at: time.Duration(i) * every, method: http.MethodPost, path: "/match", body: []byte("{}")}
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	outs := openLoop(context.Background(), client, srv.URL, calls, 2)

	waited := 0
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("call %d: status %d, %v", i, o.status, o.err)
		}
		at := calls[i].at
		if at >= stall {
			continue
		}
		if want := stall - at; o.latency() < want {
			t.Errorf("call %d due at %v: latency %v, want at least the %v it waited for the stall", i, at, o.latency(), want)
		}
		if o.connWait() > 0 {
			waited++
		}
	}
	// With two callers both held by the stall, later calls could not even
	// be sent on time; that wait is part of their latency too.
	if waited == 0 {
		t.Error("no call waited for a caller during the stall")
	}
}

func TestClosedLoopSendsOneAtATime(t *testing.T) {
	var inFlight, most int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	}))
	defer srv.Close()
	calls := make([]call, 10)
	for i := range calls {
		calls[i] = call{method: http.MethodGet, path: "/"}
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	for i, o := range closedLoop(context.Background(), client, srv.URL, calls) {
		if o.err != nil || o.latency() <= 0 {
			t.Fatalf("call %d: latency %v, %v", i, o.latency(), o.err)
		}
	}
	if most != 1 {
		t.Errorf("%d requests in flight at once, want 1", most)
	}
}
