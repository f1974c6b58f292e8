package httpclient

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeResponse feeds arbitrary bytes to the client's completion
// decoder under each op, and the same bytes, read as a request, to the
// reference server's case decoder. Nothing may panic, and nothing may be
// invented:
//   - decodeResponse returns ErrTornBody, or a completion whose first
//     choice finished with "stop" and, for a judge, carries its trace;
//   - every judged output and every case input that parseValueLiteral
//     accepts re-renders to its literal, width spelled canonically;
//   - decodeCase returns an error, or one step per wire step holding every
//     input name;
//   - decodeWireError maps only the two permanent error types.
func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, op := range []string{opGenerate, opRefine, opJudge} {
			resp, err := decodeResponse(data, op)
			if err != nil {
				if !errors.Is(err, ErrTornBody) {
					t.Fatalf("decodeResponse(%q, %s) = %v, want ErrTornBody", data, op, err)
				}
				continue
			}
			if len(resp.Choices) == 0 || resp.Choices[0].FinishReason != "stop" {
				t.Fatalf("decodeResponse(%q, %s) accepted %+v", data, op, resp)
			}
			judge := resp.Choices[0].Message.Judge
			if op == opJudge && judge == nil {
				t.Fatalf("decodeResponse(%q, judge) accepted a response without a trace", data)
			}
			if judge != nil {
				ct := decodeTrace(judge)
				for _, st := range ct.Steps {
					for _, out := range st.Outputs {
						checkValueLiteral(t, out)
					}
				}
			}
		}

		var wr wireRequest
		if json.Unmarshal(data, &wr) == nil {
			wc := wr.VFocus.Case
			c, err := decodeCase(wc)
			if err == nil {
				if len(c.Steps) != len(wc.Steps) {
					t.Fatalf("decodeCase(%q): %d steps from %d on the wire", data, len(c.Steps), len(wc.Steps))
				}
				for i, ws := range wc.Steps {
					for _, in := range ws.Inputs {
						if _, ok := c.Steps[i].Inputs[in.Name]; !ok {
							t.Fatalf("decodeCase(%q): step %d lost input %q", data, i, in.Name)
						}
						checkValueLiteral(t, in.Value)
					}
				}
			}
		}

		if err := decodeWireError(500, data); err != nil {
			var resp wireResponse
			json.Unmarshal(data, &resp)
			if resp.Error == nil || (resp.Error.Type != wireErrUnknownTask && resp.Error.Type != wireErrUnknownModel) {
				t.Fatalf("decodeWireError(%q) = %v for error %+v", data, err, resp.Error)
			}
		}
	})
}

// checkValueLiteral holds parseValueLiteral to its grammar: an accepted
// literal has as many bits as its width, and the value renders back to it.
func checkValueLiteral(t *testing.T, s string) {
	t.Helper()
	v, err := parseValueLiteral(s)
	if err != nil {
		return
	}
	w, bits, _ := strings.Cut(s, "'b")
	width, _ := strconv.Atoi(w)
	if want := strconv.Itoa(width) + "'b" + bits; v.Width() != width || v.String() != want {
		t.Fatalf("parseValueLiteral(%q) = %s (width %d), want %s", s, v.String(), v.Width(), want)
	}
}
