package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	apiv1 "vcache/api/v1"
)

// fakeDaemon answers submissions in rotation: a 429, a dropped
// connection, then a well-formed done reply.
type fakeDaemon struct {
	mu       sync.Mutex
	n        int
	rejected int
	dropped  int
}

func (f *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	k := f.n
	f.n++
	switch k % 3 {
	case 0:
		f.rejected++
	case 1:
		f.dropped++
	}
	f.mu.Unlock()
	switch k % 3 {
	case 0:
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(apiv1.ErrorBody{Error: "job queue full", RetryAfterSeconds: 1})
	case 1:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	default:
		json.NewEncoder(w).Encode(apiv1.JobInfo{ID: "j1", State: apiv1.JobDone,
			Fingerprint: "f00d", Result: json.RawMessage(`{"Cycles":1}`)})
	}
}

func TestDriveCountsRejectionsAndTransportErrors(t *testing.T) {
	fake := &fakeDaemon{}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	client := apiv1.NewClient(srv.URL)

	run := drive(context.Background(), client, newSequence(7), 200*time.Millisecond, nil)
	rep := &report{}
	tally(rep, run)

	fake.mu.Lock()
	rejected, dropped, total := fake.rejected, fake.dropped, fake.n
	fake.mu.Unlock()
	if rejected == 0 || dropped == 0 {
		t.Fatalf("fake served %d requests with %d rejections and %d drops; need both kinds", total, rejected, dropped)
	}
	if run.rejected != rejected {
		t.Errorf("drive counted %d rejections, the fake sent %d", run.rejected, rejected)
	}
	if rep.attempted != total {
		t.Errorf("attempted = %d, want the %d requests sent", rep.attempted, total)
	}
	if rep.failed != rejected+dropped {
		t.Errorf("failed = %d, want %d rejections + %d dropped connections", rep.failed, rejected, dropped)
	}
}

func TestDriveFailsDifferingReplies(t *testing.T) {
	var mu sync.Mutex
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		body := `{"Cycles":1}`
		if k%2 == 0 {
			body = `{"Cycles":2}`
		}
		json.NewEncoder(w).Encode(apiv1.JobInfo{ID: "j", State: apiv1.JobDone,
			Fingerprint: "f00d", Result: json.RawMessage(body)})
	}))
	defer srv.Close()

	run := drive(context.Background(), apiv1.NewClient(srv.URL), newSequence(7), 100*time.Millisecond, nil)
	rep := &report{}
	tally(rep, run)
	if rep.failed == 0 {
		t.Errorf("%d replies alternating between two result documents passed the byte-identity check", rep.attempted)
	}
}
