package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// overflowCase is a solve request whose instance passes Validate but whose
// answer overflows float64.
type overflowCase struct {
	name string
	req  mmlp.SolveRequest
}

func overflowCases() []overflowCase {
	pair := func(con, obj float64) *mmlp.Instance {
		return &mmlp.Instance{
			NumAgents: 2,
			Cons:      []mmlp.Constraint{{Terms: []mmlp.Term{{Agent: 0, Coef: con}, {Agent: 1, Coef: con}}}},
			Objs:      []mmlp.Objective{{Terms: []mmlp.Term{{Agent: 0, Coef: obj}, {Agent: 1, Coef: obj}}}},
		}
	}
	single := &mmlp.Instance{
		NumAgents: 1,
		Cons:      []mmlp.Constraint{{Terms: []mmlp.Term{{Agent: 0, Coef: 5e-324}}}},
		Objs:      []mmlp.Objective{{Terms: []mmlp.Term{{Agent: 0, Coef: 1}}}},
	}
	var cases []overflowCase
	for _, dsc := range []bool{false, true} {
		suffix := fmt.Sprintf(" (disable_special_cases %v)", dsc)
		cases = append(cases,
			overflowCase{"subnormal pair" + suffix, mmlp.SolveRequest{Instance: pair(5e-324, 1), DisableSpecialCases: dsc}},
			overflowCase{"subnormal single" + suffix, mmlp.SolveRequest{Instance: single, DisableSpecialCases: dsc}},
			overflowCase{"normal scales" + suffix, mmlp.SolveRequest{Instance: pair(1e-300, 1e300), DisableSpecialCases: dsc}})
	}
	return cases
}

// TestOverflowAnswers: an instance whose answer overflows float64 is a
// 400 invalid_argument with the engine's ErrOverflow message on a JSON
// and a canon solve, and the same message is each job's error in a batch
// under either request encoding and either result encoding.
func TestOverflowAnswers(t *testing.T) {
	h := cachedServer(t)
	for _, c := range overflowCases() {
		job, err := batch.JobFromRequest(&c.req)
		if err != nil {
			t.Fatal(err)
		}
		_, _, werr := engine.Solve(context.Background(), job.In, job.Opts)
		if !errors.Is(werr, engine.ErrOverflow) {
			t.Fatalf("%s: engine error %v, want ErrOverflow", c.name, werr)
		}
		msg := werr.Error()
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		payload := engine.EncodeCanon(job.In, job.Opts)
		for name, w := range map[string]*httptest.ResponseRecorder{
			"json solve":  post(h, "/v1/solve", string(body)),
			"canon solve": rawPost(h, "/v1/solve", mmlp.ContentTypeCanon, "", payload),
		} {
			var er mmlp.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest ||
				er.Error.Code != mmlp.ErrCodeInvalidArgument || er.Error.Message != msg {
				t.Fatalf("%s, %s: %d %s (%v); want 400 %s %q", c.name, name, w.Code, w.Body, err, mmlp.ErrCodeInvalidArgument, msg)
			}
		}

		jsonBatch := []byte(`{"jobs":[` + string(body) + `,` + string(body) + `]}`)
		canonBatch := canon.AppendBatch(nil, [][]byte{payload, payload})
		for _, b := range []struct {
			name, contentType string
			body              []byte
		}{{"json batch", mmlp.ContentTypeJSON, jsonBatch}, {"canon batch", mmlp.ContentTypeCanonBatch, canonBatch}} {
			w := rawPost(h, "/v1/batch", b.contentType, "", b.body)
			items := ndjsonItems(t, w.Code, w.Body.Bytes())
			w = rawPost(h, "/v1/batch", b.contentType, mmlp.ContentTypeCanonResults, b.body)
			framed, err := canon.DecodeResults(w.Body.Bytes())
			if err != nil {
				t.Fatalf("%s, %s: result frame: %v", c.name, b.name, err)
			}
			for enc, items := range map[string][]mmlp.BatchItem{"ndjson": items, "canon results": framed} {
				if len(items) != 2 {
					t.Fatalf("%s, %s as %s: %d records, want 2", c.name, b.name, enc, len(items))
				}
				for _, it := range items {
					if it.Error != msg || it.X != nil {
						t.Fatalf("%s, %s as %s: record %+v, want the error %q", c.name, b.name, enc, it, msg)
					}
				}
			}
		}
	}
}

// ndjsonItems decodes a 200 NDJSON batch body, one record a line.
func ndjsonItems(t *testing.T, status int, body []byte) []mmlp.BatchItem {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var items []mmlp.BatchItem
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var it mmlp.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("line %q: %v", sc.Bytes(), err)
		}
		items = append(items, it)
	}
	return items
}

// TestDeltaReplyBytes: a delta's reply, whose x the schema encoder splices
// from its base's encoded bytes, is byte-identical to encoding/json's
// encoding of the same DeltaResponse — priced, repeated as a cache hit,
// and with a trace — and the reply did have a base memo to splice from.
func TestDeltaReplyBytes(t *testing.T) {
	s := testServerOpts(t, 1<<20, batch.Options{Workers: 2, Queue: 4, CacheBytes: 64 << 20})
	in := gen.TriNecklace(100)
	base := seedBaseHTTP(t, s, in)
	for _, c := range []struct {
		path   string
		factor float64
	}{{"/v1/delta", 0.75}, {"/v1/delta", 0.75}, {"/v1/delta?trace=1", 0.5}} {
		w := post(s, c.path, deltaBody(t, base, reweightEdits(in, c.factor)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, w.Code, w.Body)
		}
		var resp mmlp.DeltaResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.X) != in.NumAgents || !resp.Cached && (!resp.Spliced || 2*resp.DirtyAgents > resp.TotalAgents) {
			t.Fatalf("%s: %d entries, cached %v, spliced %v, %d of %d agents dirty: want a delta that leaves most of x unchanged",
				c.path, len(resp.X), resp.Cached, resp.Spliced, resp.DirtyAgents, resp.TotalAgents)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: reply\n%s\nencoding/json\n%s", c.path, w.Body, want.Bytes())
		}
	}
	job, err := batch.JobFromDelta(&mmlp.DeltaRequest{Base: base, Edits: reweightEdits(in, 0.75)})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.pool.Do(context.Background(), job); res.Err != nil || res.Delta.BaseX == nil {
		t.Fatalf("delta result: %v, base memo %v", res.Err, res.Delta)
	}
}
