package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// eventFromFuzz builds an Event from fuzz arguments. Members come from
// members two bytes at a time as signed 16-bit values times scale; a
// one-byte members gives an empty non-nil slice, which omitempty drops as
// it drops nil.
func eventFromFuzz(typ, fp, code, status, errMsg string, done, total, rank, score, scale int, members []byte) Event {
	ev := Event{Type: typ, Done: done, Total: total, Rank: rank, Score: score,
		Fingerprint: fp, Code: code, Status: status, Error: errMsg}
	if len(members) == 1 {
		ev.Members = []int{}
	}
	for i := 0; i+1 < len(members); i += 2 {
		ev.Members = append(ev.Members, int(int16(binary.LittleEndian.Uint16(members[i:])))*scale)
	}
	return ev
}

// FuzzStreamEvent holds appendEvent to json.Encoder: for any strings, ints
// and members, the NDJSON line it appends is byte-equal to what
// json.NewEncoder(&buf).Encode(ev) writes. The seed corpus (testdata/fuzz)
// covers invalid UTF-8, control bytes, < > &, U+2028 and U+2029, zero and
// negative ints and empty members. The same strings as a job ID must give
// appendAccepted the bytes of the encoded acknowledgement map.
func FuzzStreamEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ, fp, code, status, errMsg string, done, total, rank, score, scale int, members []byte) {
		ev := eventFromFuzz(typ, fp, code, status, errMsg, done, total, rank, score, scale, members)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ev); err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := appendEvent(prefix, &ev)
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("appendEvent(%#v) = %q, json.Encoder writes %q", ev, got, want.Bytes())
		}

		want.Reset()
		if err := json.NewEncoder(&want).Encode(map[string]string{"id": code, "status": StatusQueued}); err != nil {
			t.Fatal(err)
		}
		if got := appendAccepted(nil, code); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendAccepted(%q) = %q, json.Encoder writes %q", code, got, want.Bytes())
		}
	})
}

// TestAppendEventCoversEveryField sets every field of Event and holds
// appendEvent to json.Encoder, so a field added to Event without a case in
// appendEvent fails here rather than being dropped from streams.
func TestAppendEventCoversEveryField(t *testing.T) {
	var ev Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name + "<&>")
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int{i, -i}))
		default:
			t.Fatalf("Event.%s has kind %s, which appendEvent does not encode", v.Type().Field(i).Name, f.Kind())
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ev); err != nil {
		t.Fatal(err)
	}
	if got := appendEvent(nil, &ev); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendEvent = %q, json.Encoder writes %q", got, want.Bytes())
	}
}

// TestStreamBytesMatchEncoder runs a job end to end and holds every byte
// the daemon writes to json.Encoder: the submit acknowledgement and each
// NDJSON line of the stream, re-encoded from its decoded Event, must be
// byte-identical to what was sent.
func TestStreamBytesMatchEncoder(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 4, RankWorkers: 1})
	codes := append(gateCandidates(), "module top_module(input a, input b, output y); assign y = a < b && 1'b1 > 0; // \u2028 \xff\x01 & <>\nendmodule\n")
	body, err := json.Marshal(SubmitRequest{ID: "bytes<&>", TaskID: gateTaskID, Candidates: codes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %q %v", resp.StatusCode, ack, err)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(map[string]string{"id": "bytes<&>", "status": StatusQueued})
	if !bytes.Equal(ack, want.Bytes()) {
		t.Fatalf("acknowledgement %q, json.Encoder writes %q", ack, want.Bytes())
	}

	resp, err = client.Get(ts.URL + "/jobs/bytes%3C&%3E/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var last Event
	clusters, escaped := 0, false
	for sc.Scan() {
		line := append(sc.Bytes(), '\n')
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		want.Reset()
		json.NewEncoder(&want).Encode(ev)
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("stream line %q, json.Encoder writes %q", line, want.Bytes())
		}
		if ev.Type == "cluster" {
			clusters++
			escaped = escaped || strings.Contains(ev.Code, "&&")
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Type != "done" || last.Status != StatusCompleted || clusters == 0 || !escaped {
		t.Fatalf("stream ended with %+v after %d clusters (escaped candidate streamed: %v), want a completed job whose clusters include it", last, clusters, escaped)
	}
}

// TestJobRecordLazyWake: appends with no follower waiting make no wake
// channel; a follower that has read the whole log gets one, and the next
// append closes it.
func TestJobRecordLazyWake(t *testing.T) {
	rec := newJobRecord("j")
	for k := 1; k <= 3; k++ {
		rec.append(Event{Type: "progress", Done: k, Total: 3})
	}
	if rec.wake != nil {
		t.Fatal("appends with no follower made a wake channel")
	}
	evs, wake, final := rec.snapshot(0)
	if len(evs) != 3 || wake != nil || final {
		t.Fatalf("snapshot(0) = %d events, wake %v, final %v; want 3 events and no wake", len(evs), wake, final)
	}
	_, wake, _ = rec.snapshot(3)
	if wake == nil {
		t.Fatal("a caught-up follower got no wake channel")
	}
	if _, again, _ := rec.snapshot(3); again != wake {
		t.Fatal("two caught-up followers got different wake channels")
	}
	rec.finish(nil)
	select {
	case <-wake:
	default:
		t.Fatal("the terminal append did not close the wake channel")
	}
	if evs, wake, final := rec.snapshot(4); len(evs) != 0 || wake != nil || !final {
		t.Fatalf("after finish: %d events, wake %v, final %v; want none, no wake, final", len(evs), wake, final)
	}
}

// streamEventsOf is a job's event log shaped like a daemon-hot job's: a
// progress event per batch, one cluster per distinct candidate text of
// codes, and the terminal event.
func streamEventsOf(codes []string) []Event {
	evs := []Event{{Type: "progress", Done: 1, Total: 2}, {Type: "progress", Done: 2, Total: 2}}
	seen := map[string]bool{}
	for i, code := range codes {
		if seen[code] {
			continue
		}
		seen[code] = true
		evs = append(evs, Event{Type: "cluster", Rank: len(evs) - 1, Score: 1 + i%7,
			Fingerprint: fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15), Members: []int{i}, Code: code})
	}
	return append(evs, Event{Type: "done", Status: StatusCompleted})
}

// BenchmarkStreamEvents encodes a daemon-hot-shaped job's event log as the
// stream handler does, into one reused buffer, and for reference with
// json.Encoder.
func BenchmarkStreamEvents(b *testing.B) {
	var req SubmitRequest
	if err := json.Unmarshal(hotBody(b), &req); err != nil {
		b.Fatal(err)
	}
	evs := streamEventsOf(req.Candidates)
	b.Run("appendEvent", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			for i := range evs {
				buf = appendEvent(buf[:0], &evs[i])
				io.Discard.Write(buf)
			}
		}
	})
	b.Run("json_Encoder", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			enc := json.NewEncoder(io.Discard)
			for i := range evs {
				if err := enc.Encode(evs[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
