package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sparse"
)

// cycle4 is a 4x4 pattern graph: row i holds columns i and i+1 mod 4.
func cycle4() *sparse.CSR {
	return &sparse.CSR{RowsN: 4, ColsN: 4, Ptr: []int{0, 2, 4, 6, 8}, Idx: []int32{0, 1, 1, 2, 2, 3, 0, 3}}
}

// diag2 is a full 2x2 weighted graph whose diagonal is the heavy matching.
func diag2() *sparse.CSR {
	return &sparse.CSR{RowsN: 2, ColsN: 2, Ptr: []int{0, 2, 4}, Idx: []int32{0, 1, 0, 1}, Val: []float64{10, 1, 1, 10}}
}

// TestCheckerCountsWrongAnswers serves fixed answers, some corrupted, and
// checks that a phase counts exactly the corrupted ones as wrong and the
// refused one as refused.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	type answer struct {
		status  int
		size    int
		rowMate []int32
		weight  float64
	}
	// Answers by graph id and seed.
	answers := map[string]map[uint64]answer{
		"g": {
			1: {200, 4, []int32{0, 1, 2, 3}, 0}, // correct
			2: {200, 4, []int32{0, 1, 3, 2}, 0}, // (3,2) is not an edge
			3: {200, 3, []int32{0, 1, 2, 3}, 0}, // size disagrees with row_mate
			4: {200, 4, []int32{1, 1, 2, 3}, 0}, // column 1 used twice
			5: {503, 0, nil, 0},                 // refused
		},
		"w": {
			1: {200, 2, []int32{0, 1}, 20}, // optimal
			2: {200, 2, []int32{1, 0}, 2},  // valid but far below (1-eps) x optimum
			3: {200, 2, []int32{0, 1}, 25}, // reported weight is not the matching's
		},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Graph string `json:"graph"`
			Seed  uint64 `json:"seed"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a := answers[req.Graph][req.Seed]
		if a.status != http.StatusOK {
			http.Error(w, "overloaded", a.status)
			return
		}
		n := 4
		if req.Graph == "w" {
			n = 2
		}
		json.NewEncoder(w).Encode(map[string]any{"rows": n, "cols": n, "size": a.size,
			"row_mate": a.rowMate, "matched_weight": a.weight, "epsilon": 0.05})
	}))
	defer srv.Close()

	g := newServeGraph("cycle", roleRead, cycle4())
	g.id, g.sprank = "g", 4
	wg := newServeGraph("diag", roleWeighted, diag2())
	wg.id, wg.optimum = "w", 20
	client := newClient(2)
	defer client.CloseIdleConnections()
	s := &serveRun{ctx: context.Background(), client: client, fleet: &fleet{front: srv.URL},
		gs: []*serveGraph{g, wg}, st: &stream{}, patchSeen: map[int]outcome{}}
	var reqs []request
	for seed := uint64(1); seed <= 5; seed++ {
		reqs = append(reqs, request{kind: kindTwoSided, graph: 0, seed: seed})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		reqs = append(reqs, request{kind: kindAuction, graph: 1, seed: seed})
	}
	p := s.counted(reqs, false)
	if p.wrong != 5 || p.refused != 1 || s.failed != 6 {
		t.Errorf("wrong %d, refused %d, failed %d; want 5, 1, 6", p.wrong, p.refused, s.failed)
	}
	if len(p.quality) != 1 || p.quality[0] != 1 {
		t.Errorf("quality samples %v, want the one correct read's [1]", p.quality)
	}
}

func TestCheckMatchingRejectsInconsistentMates(t *testing.T) {
	a := cycle4()
	if err := checkMatching(a, []int32{0, 1, 2, 3}, []int32{0, 1, 2, 3}, 4); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	for _, c := range []struct {
		name             string
		rowMate, colMate []int32
		size             int
	}{
		{"col_mate disagrees", []int32{0, 1, 2, 3}, []int32{0, 1, 3, 2}, 4},
		{"col_mate too short", []int32{0, 1, 2, 3}, []int32{0, 1, 2}, 4},
		{"row_mate too short", []int32{0, 1, 2}, []int32{0, 1, 2, -1}, 3},
		{"column out of range", []int32{0, 1, 2, 4}, []int32{0, 1, 2, -1}, 4},
	} {
		if err := checkMatching(a, c.rowMate, c.colMate, c.size); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestWriteGraphReadsCheckedAgainstPatchState checks a read of a patched
// graph against the edge sets it could have seen: before a batch was sent,
// after it completed, or either while it was in flight.
func TestWriteGraphReadsCheckedAgainstPatchState(t *testing.T) {
	a := &sparse.CSR{RowsN: 3, ColsN: 3, Ptr: []int{0, 1, 2, 3}, Idx: []int32{0, 1, 2}}
	g := newServeGraph("diag", roleWrite, a)
	// One batch deletes (2,2) and inserts (0,2).
	g.delBy[edgeKey(2, 2)] = 0
	g.insBy[edgeKey(0, 2)] = 0
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &serveRun{gs: []*serveGraph{g},
		st:        &stream{patches: []patchBatch{{graph: 0, ins: [][2]int32{{0, 2}}, del: [][2]int32{{2, 2}}}}},
		patchSeen: map[int]outcome{0: {sent: at(10), done: at(20), status: http.StatusOK}}}
	before := &wireMatch{Rows: 3, Cols: 3, Size: 3, RowMate: []int32{0, 1, 2}} // uses (2,2)
	after := &wireMatch{Rows: 3, Cols: 3, Size: 2, RowMate: []int32{2, 1, -1}} // uses (0,2)
	for _, c := range []struct {
		name       string
		wm         *wireMatch
		sent, done int
		ok         bool
	}{
		{"old state, read done before the batch", before, 0, 5, true},
		{"new state, read done before the batch", after, 0, 5, false},
		{"old state, read sent after the batch", before, 30, 40, false},
		{"new state, read sent after the batch", after, 30, 40, true},
		{"old state, batch in flight", before, 15, 25, true},
		{"new state, batch in flight", after, 15, 25, true},
	} {
		err := s.checkWriteRead(0, c.wm, &outcome{sent: at(c.sent), done: at(c.done)})
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}
