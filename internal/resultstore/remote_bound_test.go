package resultstore

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// zeros is an endless reader of zero bytes that counts what it hands out.
type zeros struct{ n atomic.Int64 }

func (z *zeros) Read(p []byte) (int, error) {
	clear(p)
	z.n.Add(int64(len(p)))
	return len(p), nil
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxBoundedRead bounds what reading one oversized body may allocate: the
// capped read buffer as it grows (io.ReadAll allocates about five times the
// bytes it keeps), with room for the HTTP plumbing. Reading a 2 MiB body
// unbounded allocates more than this.
const maxBoundedRead = 8 * maxRecordBytes

var boundKey = Key{DesignHash: strings.Repeat("a", 64), ScheduleHash: strings.Repeat("b", 64)}

// TestRemotePutBodyBounded: the store server answers a 2 MiB PUT with 413,
// stores nothing, and reads no more than the record bound of the body.
func TestRemotePutBodyBounded(t *testing.T) {
	backing := NewMemory(0)
	h := Handler(backing)
	var src zeros
	req := httptest.NewRequest(http.MethodPut, "/v1/fp/"+boundKey.DesignHash+"/"+boundKey.ScheduleHash, io.LimitReader(&src, 2<<20))
	rec := httptest.NewRecorder()
	alloc := allocatedBy(func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB PUT answered %d, want 413", rec.Code)
	}
	if _, hit, err := backing.Get(context.Background(), boundKey); hit || err != nil {
		t.Fatalf("refused PUT left a record (hit %v, err %v)", hit, err)
	}
	if read := src.n.Load(); read > maxRecordBytes+1 {
		t.Fatalf("handler read %d body bytes, bound is %d", read, maxRecordBytes+1)
	}
	if alloc > maxBoundedRead {
		t.Fatalf("refusing the PUT allocated %d bytes, bound is %d", alloc, maxBoundedRead)
	}
}

// TestRemoteGetBodyBounded: a peer that answers GET and the length probe
// with an endless body costs the Remote one bounded read each, and Get
// returns ErrRecordTooLarge without retrying.
func TestRemoteGetBodyBounded(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		buf := make([]byte, 32<<10)
		for {
			if _, err := w.Write(buf); err != nil {
				return // the client hung up
			}
		}
	}))
	defer ts.Close()
	r := NewRemote(ts.URL, nil)
	defer r.Close()

	var hit bool
	var err error
	alloc := allocatedBy(func() { _, hit, err = r.Get(context.Background(), boundKey) })
	if hit || !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Get of an endless body = hit %v, err %v; want a miss with ErrRecordTooLarge", hit, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("Get made %d requests, want 1 (an oversized record is not retried)", n)
	}
	if alloc > maxBoundedRead {
		t.Fatalf("Get of an endless body allocated %d bytes, bound is %d", alloc, maxBoundedRead)
	}
	if _, err := r.Len(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Len of an endless body: err %v, want ErrRecordTooLarge", err)
	}
}
