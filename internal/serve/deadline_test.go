package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/faultinject"
)

// shortDeadlines sets the connection deadlines for one test and restores
// them after it.
func shortDeadlines(t *testing.T, header, idle, body time.Duration) {
	t.Helper()
	h, i, b := readHeaderTimeout, idleTimeout, submitBodyTimeout
	readHeaderTimeout, idleTimeout, submitBodyTimeout = header, idle, body
	t.Cleanup(func() { readHeaderTimeout, idleTimeout, submitBodyTimeout = h, i, b })
}

// startHTTPServer serves srv through HTTPServer, the daemon's own
// http.Server construction, on a loopback port.
func startHTTPServer(t *testing.T, cfg Config) string {
	t.Helper()
	srv := New(cfg)
	hs := srv.HTTPServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		hs.Close()
		<-done
	})
	return ln.Addr().String()
}

// readUntilClosed reads conn until the server closes it or limit passes,
// returning what arrived and how long it took.
func readUntilClosed(t *testing.T, conn net.Conn, limit time.Duration) (string, time.Duration) {
	t.Helper()
	start := time.Now()
	conn.SetReadDeadline(start.Add(limit))
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %s (read %q)", limit, got)
	}
	return string(got), time.Since(start)
}

// TestSlowHeadersDisconnected sends half a request line and stalls: the
// server must drop the connection once the header deadline passes.
func TestSlowHeadersDisconnected(t *testing.T) {
	shortDeadlines(t, 100*time.Millisecond, IdleTimeout, SubmitBodyTimeout)
	addr := startHTTPServer(t, Config{Workers: 1, QueueCap: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	got, took := readUntilClosed(t, conn, 5*time.Second)
	if strings.Contains(got, "200 OK") {
		t.Fatalf("incomplete headers were served: %q", got)
	}
	t.Logf("slow-header connection closed after %s", took)
}

// TestDribbledSubmitBodyCut declares a submit body and sends it one byte
// at a time: the server must answer 408 and close the connection once the
// body deadline passes, long before the body would be complete.
func TestDribbledSubmitBodyCut(t *testing.T) {
	shortDeadlines(t, ReadHeaderTimeout, IdleTimeout, 200*time.Millisecond)
	addr := startHTTPServer(t, Config{Workers: 1, QueueCap: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const bodyLen = 400 // 400 bytes at 20 ms each would take 8 s
	if _, err := fmt.Fprintf(conn, "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", bodyLen); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for i := 0; i < bodyLen; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := conn.Write([]byte{' '}); err != nil {
				return
			}
		}
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a dribbled body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("dribbled body: HTTP %d, want 408", resp.StatusCode)
	}
	if !resp.Close {
		t.Fatal("dribbled body: connection kept alive with the rest of the body unread")
	}
	_, took := readUntilClosed(t, conn, 5*time.Second)
	t.Logf("connection closed %s after the 408", took)
}

// TestStreamOutlivesDeadlines holds a job in ranking for longer than every
// connection deadline while a client streams it: the stream must still end
// with the job's completed event.
func TestStreamOutlivesDeadlines(t *testing.T) {
	defer faultinject.Reset()
	const d = 150 * time.Millisecond
	shortDeadlines(t, d, d, d)
	addr := startHTTPServer(t, Config{Workers: 1, QueueCap: 2, RankWorkers: 1})
	base := "http://" + addr
	// Fresh connections per request: with the idle deadline this short, a
	// pooled connection may close between requests.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	entered := make(chan struct{})
	hold := make(chan struct{})
	faultinject.Arm(faultinject.PointRankBatch, "", 1, func() {
		close(entered)
		<-hold
	})
	id, resp := submitJob(t, client, base, SubmitRequest{TaskID: gateTaskID, Candidates: gateCandidates(), Seed: 5})
	if id == "" {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	<-entered
	go func() {
		time.Sleep(8 * d) // past every deadline, with the stream open
		close(hold)
	}()
	evs := streamEvents(t, client, base, id)
	if fin := terminal(evs); fin == nil || fin.Status != StatusCompleted {
		t.Fatalf("stream terminal = %+v, want completed", fin)
	}
	if len(clusterEvents(evs)) == 0 {
		t.Fatal("stream missed the cluster events")
	}
}
