package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"strings"
	"testing"
	"time"
)

// rawResponse is one HTTP/1.1 response as it crossed the socket: the
// header block parsed, and every byte after it, undecoded.
type rawResponse struct {
	status int
	header textproto.MIMEHeader
	after  []byte
}

// rawPost sends one POST over its own TCP connection and reads the
// response to EOF without net/http's client in between, which would
// undo a chunked body and hide the framing this test is about.
func rawPost(t *testing.T, addr, path, body string) rawResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body); err != nil {
		t.Fatal(err)
	}
	rd := textproto.NewReader(bufio.NewReader(conn))
	line, err := rd.ReadLine()
	if err != nil {
		t.Fatalf("%s: status line: %v", path, err)
	}
	var resp rawResponse
	if f := strings.Fields(line); len(f) < 2 || f[0] != "HTTP/1.1" {
		t.Fatalf("%s: status line %q", path, line)
	} else if resp.status, err = strconv.Atoi(f[1]); err != nil {
		t.Fatalf("%s: status line %q", path, line)
	}
	if resp.header, err = rd.ReadMIMEHeader(); err != nil {
		t.Fatalf("%s: headers: %v", path, err)
	}
	if resp.after, err = io.ReadAll(rd.R); err != nil {
		t.Fatalf("%s: body: %v", path, err)
	}
	return resp
}

// checkFramed asserts the response's status and X-Cache, and its
// framing: a Content-Length equal to the bytes that followed the
// headers, no Transfer-Encoding, and those bytes one JSON document.
func checkFramed(t *testing.T, what string, resp rawResponse, status int, xcache string) {
	t.Helper()
	if resp.status != status || resp.header.Get("X-Cache") != xcache {
		t.Fatalf("%s: status %d, X-Cache %q; want %d, %q (body %.200s)", what, resp.status, resp.header.Get("X-Cache"), status, xcache, resp.after)
	}
	if te, ok := resp.header["Transfer-Encoding"]; ok {
		t.Errorf("%s: Transfer-Encoding %q", what, te)
	}
	cl := resp.header["Content-Length"]
	if len(cl) != 1 || cl[0] != strconv.Itoa(len(resp.after)) {
		t.Errorf("%s: Content-Length %q, %d bytes followed the headers", what, cl, len(resp.after))
	}
	if !json.Valid(resp.after) || !bytes.HasSuffix(resp.after, []byte("}\n")) {
		t.Errorf("%s: body is not one newline-terminated JSON document: %.200s", what, resp.after)
	}
}

func serve(t *testing.T, s *Server) (addr string) {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// TestResponseFraming: every response body leaves with its
// Content-Length, however it was produced — a miss, a byte-identical
// hit, a re-spelled hit, a follower's copy of another request's solve,
// a hit and a 429 under shed, a 400, a cluster frontend's forwarded miss
// and its hit. Left to net/http, any body over 2 KB (every compare and
// sweep answer) goes out chunked.
func TestResponseFraming(t *testing.T) {
	endpoints := []struct {
		name, body string
		adm        func(*Server) *admission
	}{
		{"advise", adviseBody("mv1", `"budget":25`), func(s *Server) *admission { return s.admCheap }},
		{"compare", compareBody(`"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5]`), func(s *Server) *admission { return s.admHeavy }},
		{"sweep", sweepBody(`"fleet_sizes":[3,5]`), func(s *Server) *admission { return s.admHeavy }},
	}
	respelled := func(body string) string { return body[:len(body)-1] + " }" }

	for _, e := range endpoints {
		path := "/v1/" + e.name
		t.Run(e.name, func(t *testing.T) {
			s := testServer()
			addr := serve(t, s)
			miss := rawPost(t, addr, path, e.body)
			checkFramed(t, "miss", miss, 200, "miss")
			if e.name != "advise" && len(miss.after) <= 2048 {
				t.Errorf("%s answer is %d bytes: too small to have been chunked, the case tests nothing", e.name, len(miss.after))
			}
			for what, body := range map[string]string{"raw hit": e.body, "canonical hit": respelled(e.body)} {
				hit := rawPost(t, addr, path, body)
				checkFramed(t, what, hit, 200, "hit")
				if !bytes.Equal(hit.after, miss.after) {
					t.Errorf("%s: body differs from the miss's", what)
				}
			}
			checkFramed(t, "400", rawPost(t, addr, path, `{"budget":`), 400, "")

			// A shed: the endpoint's admission class holds a phantom solve
			// and has no queue.
			shed := New(Options{AdviseWorkers: 1, AdviseQueue: -1, HeavyWorkers: 1, HeavyQueue: -1})
			e.adm(shed).backlog.Add(1)
			resp := rawPost(t, serve(t, shed), path, e.body)
			checkFramed(t, "429", resp, 429, "")
			if resp.header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		})

		// A follower: the leader's solve is held by injected latency until
		// the second request has joined its flight.
		t.Run(e.name+"/coalesced", func(t *testing.T) {
			s := withChaos(New(Options{}), ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 200 * time.Millisecond})
			addr := serve(t, s)
			leader := make(chan rawResponse, 1)
			go func() { leader <- rawPost(t, addr, path, e.body) }()
			for deadline := time.Now().Add(10 * time.Second); s.inflightSolves.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("leader never started its solve")
				}
			}
			follower := rawPost(t, addr, path, e.body)
			checkFramed(t, "follower", follower, 200, "coalesced")
			lead := <-leader
			checkFramed(t, "leader", lead, 200, "miss")
			if !bytes.Equal(follower.after, lead.after) {
				t.Error("follower's body differs from the leader's")
			}
		})
	}

	// Under shed: the answer the cache holds is a hit, the one it evicted
	// a 429 with Retry-After.
	t.Run("advise/evicted", func(t *testing.T) {
		s := New(Options{CacheSize: 1, AdviseWorkers: 1, AdviseQueue: -1})
		addr := serve(t, s)
		checkFramed(t, "prime", rawPost(t, addr, "/v1/advise", adviseBody("mv1", `"budget":25`)), 200, "miss")
		second := rawPost(t, addr, "/v1/advise", adviseBody("mv1", `"budget":40`))
		checkFramed(t, "evict", second, 200, "miss")
		drainSolves(t, s, 5*time.Second)
		s.admCheap.backlog.Add(1)
		hit := rawPost(t, addr, "/v1/advise", adviseBody("mv1", `"budget":40`))
		checkFramed(t, "resident", hit, 200, "hit")
		if !bytes.Equal(hit.after, second.after) {
			t.Error("the hit's body differs from the miss's")
		}
		shed := rawPost(t, addr, "/v1/advise", adviseBody("mv1", `"budget":25`))
		checkFramed(t, "evicted", shed, 429, "")
		if shed.header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	})

	// A cluster frontend: the miss is a worker's body forwarded, the hit
	// comes from the frontend's own cache.
	t.Run("cluster", func(t *testing.T) {
		lc := NewLocalCluster(LocalClusterOptions{Workers: 2})
		defer lc.Close()
		addr := serve(t, lc.Frontend)
		for _, e := range endpoints {
			miss := rawPost(t, addr, "/v1/"+e.name, e.body)
			checkFramed(t, e.name+" forwarded miss", miss, 200, "miss")
			if miss.header.Get("X-Worker") == "" {
				t.Errorf("%s: no X-Worker on a forwarded miss", e.name)
			}
			hit := rawPost(t, addr, "/v1/"+e.name, e.body)
			checkFramed(t, e.name+" frontend hit", hit, 200, "hit")
			if !bytes.Equal(hit.after, miss.after) {
				t.Errorf("%s: frontend hit differs from the forwarded miss", e.name)
			}
		}
	})

	// The uncached GET endpoints go through the same writer.
	t.Run("get", func(t *testing.T) {
		ts := httptest.NewServer(testServer())
		defer ts.Close()
		for _, path := range []string{"/healthz", "/v1/stats", "/v1/tariffs"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s: Content-Length %d, Transfer-Encoding %q, %d body bytes", path, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
	})
}
