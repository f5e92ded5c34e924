package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"fupermod/internal/service"
)

// server is the partition service behind a loopback listener: the same
// Handler fupermod-serve mounts, minus flag parsing.
type server struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

func startServer(cfg service.Config) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc: svc,
		hs:  &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
			Timeout:   time.Minute,
		},
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // always ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop drains the listener, waits for the serve loop to exit and releases
// the service.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a drain timeout leaves nothing for us to do
	<-s.served
	s.svc.Close()
	s.client.CloseIdleConnections()
}

func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// healthy reports whether /healthz answers 200.
func (s *server) healthy() error {
	status, body, err := s.do(http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/healthz: %d %s", status, body)
	}
	return nil
}

// stats reads /stats and how long the call took.
func (s *server) stats() (service.Snapshot, time.Duration, error) {
	start := time.Now()
	status, body, err := s.do(http.MethodGet, "/stats", nil)
	took := time.Since(start)
	var snap service.Snapshot
	if err != nil {
		return snap, took, err
	}
	if status != http.StatusOK {
		return snap, took, fmt.Errorf("/stats: %d %s", status, body)
	}
	return snap, took, json.Unmarshal(body, &snap)
}

// record is one request of a closed loop and its outcome.
type record struct {
	req    Request
	status int
	body   []byte
	err    error
	start  time.Time
	lat    time.Duration
	// checkErr is why the answer is wrong: a failed request, or a body
	// the replay disagrees with. Nil for a correct answer.
	checkErr error
}

// clients is the closed loop's width: each client sends its next request
// only after the previous reply, as an application waiting for its
// distribution does.
const clients = 2

// closedLoop runs the clients over the stream while more(i) holds for the
// stream's next index i, and returns the records in stream order. With
// tracers (one per client), each request is a root span "request" and
// onReply runs under a sibling root span "replay".
func (s *server) closedLoop(st *stream, more func(i int) bool, tracers []*tracer, onReply func(t *tracer, rec *record)) []record {
	var (
		mu   sync.Mutex
		recs []*record
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		var t *tracer
		if tracers != nil {
			t = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := len(recs)
				if !more(i) {
					mu.Unlock()
					return
				}
				rec := &record{req: st.next()}
				recs = append(recs, rec)
				mu.Unlock()

				t.forRequest(i)
				h := t.begin("request", rec.req.Endpoint)
				rec.start = time.Now()
				rec.status, rec.body, rec.err = s.do(http.MethodPost, rec.req.Endpoint, rec.req.Body)
				rec.lat = time.Since(rec.start)
				t.end(h)
				if onReply != nil {
					h = t.begin("replay", rec.req.Endpoint)
					onReply(t, rec)
					t.end(h)
				}
			}
		}()
	}
	wg.Wait()
	out := make([]record, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}
