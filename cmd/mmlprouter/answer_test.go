package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/httperr"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// poolShard boots a shard whose /v1/solve and /v1/batch run a real worker
// pool behind the front both tiers share, and a router over it. A failed
// solve answers as mmlpserve answers an invalid instance: 400
// invalid_argument with the error's message.
func poolShard(t *testing.T) *router {
	t.Helper()
	pool := batch.NewPool(batch.Options{Workers: 2, CacheBytes: 1 << 20})
	t.Cleanup(pool.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		job, _, status, err := httperr.DecodeSolve(w, r, 1<<20)
		if err != nil {
			httperr.Write(w, status, httperr.CodeForStatus(status), err)
			return
		}
		res := pool.Do(r.Context(), job)
		if res.Err != nil {
			status := http.StatusInternalServerError
			if errors.Is(res.Err, mmlp.ErrInvalid) {
				status = http.StatusBadRequest
			}
			httperr.Write(w, status, httperr.CodeForStatus(status), res.Err)
			return
		}
		resp := batch.ResponseFromResult(res)
		httperr.WriteAnswer(w, &resp, nil)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		jobs, status, err := httperr.DecodeBatch(w, r, 1<<20)
		if err != nil {
			httperr.Write(w, status, httperr.CodeForStatus(status), err)
			return
		}
		emit := httperr.BatchWriter(w, r)
		for i, job := range jobs {
			res := pool.Do(r.Context(), job)
			res.Index = i
			emit(batch.ItemFromResult(res))
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := shard.New([]string{u.Host}, 32)
	if err != nil {
		t.Fatal(err)
	}
	return newRouter(shard.NewClient(ring, shard.ClientOptions{Cooldown: time.Minute}), 1<<20)
}

// TestOverflowAnswersThroughRouter: an instance whose answer overflows
// float64 reaches the router's client as its shard answers it: a 400
// invalid_argument with the engine's ErrOverflow message for a JSON or a
// canon solve, and that message as each job's error in a batch, under
// either result encoding.
func TestOverflowAnswersThroughRouter(t *testing.T) {
	rt := poolShard(t)
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
	for _, in := range []*mmlp.Instance{pair(5e-324, 1), single, pair(1e-300, 1e300)} {
		for _, dsc := range []bool{false, true} {
			req := mmlp.SolveRequest{Instance: in, DisableSpecialCases: dsc}
			opts := engine.Options{DisableSpecialCases: dsc}
			_, _, werr := engine.Solve(context.Background(), in, opts)
			if !errors.Is(werr, engine.ErrOverflow) {
				t.Fatalf("dsc=%v: engine error %v, want ErrOverflow", dsc, werr)
			}
			msg := werr.Error()
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range map[string]*httptest.ResponseRecorder{
				"json solve":  post(rt, "/v1/solve", string(body)),
				"canon solve": rawPost(rt, "/v1/solve", mmlp.ContentTypeCanon, "", engine.EncodeCanon(in, opts)),
			} {
				var er mmlp.ErrorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest ||
					er.Error.Code != mmlp.ErrCodeInvalidArgument || er.Error.Message != msg {
					t.Fatalf("%s dsc=%v: %d %s (%v); want 400 %s %q", name, dsc, w.Code, w.Body, err, mmlp.ErrCodeInvalidArgument, msg)
				}
			}

			batchBody := []byte(`{"jobs":[` + string(body) + `,` + string(body) + `]}`)
			w := post(rt, "/v1/batch", string(batchBody))
			var items []mmlp.BatchItem
			sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
			for sc.Scan() {
				var it mmlp.BatchItem
				if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
					t.Fatalf("line %q: %v", sc.Bytes(), err)
				}
				items = append(items, it)
			}
			w = rawPost(rt, "/v1/batch", mmlp.ContentTypeJSON, mmlp.ContentTypeCanonResults, batchBody)
			framed, err := canon.DecodeResults(w.Body.Bytes())
			if err != nil {
				t.Fatalf("dsc=%v: result frame: %v", dsc, err)
			}
			for enc, items := range map[string][]mmlp.BatchItem{"ndjson": items, "canon results": framed} {
				if len(items) != 2 {
					t.Fatalf("dsc=%v, %s: %d records, want 2", dsc, enc, len(items))
				}
				for _, it := range items {
					if it.Error != msg || it.X != nil {
						t.Fatalf("dsc=%v, %s: record %+v, want the error %q", dsc, enc, it, msg)
					}
				}
			}
		}
	}
}
