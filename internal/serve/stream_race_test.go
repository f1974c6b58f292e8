package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestStreamEndsWithTerminalEvent races a job's last events and finish
// against streams that follow the log as it grows. Every stream must end
// with the terminal event: a follower that sees the job final has already
// seen the event that made it so.
func TestStreamEndsWithTerminalEvent(t *testing.T) {
	const rounds, followers = 1000, 8
	s := &Server{jobs: make(map[string]*jobRecord)}
	for i := 0; i < rounds; i++ {
		id := fmt.Sprintf("job-%d", i)
		rec := newJobRecord(id)
		s.mu.Lock()
		s.jobs[id] = rec
		s.mu.Unlock()

		ws := make([]*httptest.ResponseRecorder, followers)
		var wg sync.WaitGroup
		for f := range ws {
			ws[f] = httptest.NewRecorder()
			wg.Add(1)
			go func(w *httptest.ResponseRecorder) {
				defer wg.Done()
				s.handleStream(w, httptest.NewRequest("GET", "/jobs/"+id+"/stream", nil), id)
			}(ws[f])
		}
		for k := 1; k <= 3; k++ {
			rec.append(Event{Type: "progress", Done: k, Total: 3})
			runtime.Gosched() // let the followers catch up before the next event
		}
		rec.finish(nil)
		wg.Wait()

		for f, w := range ws {
			var last Event
			n := 0
			sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
			for sc.Scan() {
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					t.Fatalf("round %d follower %d: bad event line %q: %v", i, f, sc.Text(), err)
				}
				n++
			}
			if n != 4 || last.Type != "done" || last.Status != StatusCompleted {
				t.Fatalf("round %d follower %d: stream ended after %d events with %+v, want 4 events ending in done", i, f, n, last)
			}
		}
	}
}
