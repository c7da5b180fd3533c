package httperr

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

var shapeNames = [...]string{"solve", "delta", "batch"}

// decodeShape runs the decoder of one fuzz shape — /v1/solve, /v1/delta
// or /v1/batch — returning a single-job decode as a one-job slice.
func decodeShape(shape uint8, r *http.Request, limit int64) ([]batch.Job, int, error) {
	if shape == 2 {
		return DecodeBatch(httptest.NewRecorder(), r, limit)
	}
	decode := DecodeSolve
	if shape == 1 {
		decode = DecodeDelta
	}
	job, _, status, err := decode(httptest.NewRecorder(), r, limit)
	return []batch.Job{job}, status, err
}

// request builds a POST carrying body under contentType ("" sends none).
func request(contentType string, body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	return r
}

const solveJSON = `{"instance":{"num_agents":2,"constraints":[{"terms":[{"agent":0,"coef":1},{"agent":1,"coef":2}]}],"objectives":[{"terms":[{"agent":0,"coef":1}]},{"terms":[{"agent":1,"coef":1}]}]},"r":3}`

// invalidJSON is a solve whose instance fails Validate: constraint 0
// names an agent outside [0, num_agents).
const invalidJSON = `{"instance":{"num_agents":2,"constraints":[{"terms":[{"agent":0,"coef":1},{"agent":2,"coef":1}]}]},"r":3}`

// FuzzDecoders throws (shape, content type, body) triples at the shared
// request decoders: shape picks /v1/solve, /v1/delta or /v1/batch. The
// decoders must never panic and must reject only with 400 or 413. Every
// accepted JSON solve job is then transcoded the way the router forwards
// it: CanonJob must fail with exactly Validate's error — the message a
// shard answers that JSON job with — or yield a payload a shard decodes to
// a valid instance and that hashes to the job's cache key, so the shard
// files the result where a direct JSON client's lookup lands.
func FuzzDecoders(f *testing.F) {
	payload := engine.EncodeCanon(gen.TriNecklace(2), engine.Options{R: 3})
	f.Add(uint8(0), mmlp.ContentTypeJSON, []byte(solveJSON))
	f.Add(uint8(0), mmlp.ContentTypeJSON, []byte(invalidJSON))
	f.Add(uint8(0), mmlp.ContentTypeCanon, payload)
	f.Add(uint8(1), "", []byte(`{"base":"`+strings.Repeat("ab", 32)+`","edits":[]}`))
	f.Add(uint8(2), mmlp.ContentTypeJSON, []byte(`{"jobs":[`+solveJSON+`,`+invalidJSON+`,`+solveJSON+`]}`))
	f.Add(uint8(2), mmlp.ContentTypeCanonBatch, canon.AppendBatch(nil, [][]byte{payload}))

	f.Fuzz(func(t *testing.T, shape uint8, contentType string, body []byte) {
		shape %= 3
		name := shapeNames[shape]
		jobs, status, err := decodeShape(shape, request(contentType, body), 1<<16)
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s rejected with status %d: %v", name, status, err)
			}
			return
		}
		if status != 0 {
			t.Fatalf("%s accepted with status %d", name, status)
		}
		for i, job := range jobs {
			if job.In == nil {
				continue // a canon payload or a delta is forwarded as sent
			}
			cjob, err := CanonJob(job)
			if verr := job.In.Validate(); verr != nil || err != nil {
				if verr == nil || err == nil || err.Error() != verr.Error() {
					t.Fatalf("%s job %d: transcode error %v, Validate error %v\nbody: %s", name, i, err, verr, body)
				}
				continue
			}
			in, _, err := canon.DecodeSolve(cjob.Canon, nil)
			if err == nil {
				err = in.Validate()
			}
			if err != nil {
				t.Fatalf("%s job %d: a shard rejects the forwarded payload: %v\nbody: %s", name, i, err, body)
			}
			if k, want := RouteKey(cjob), engine.SolveKey(job.In, job.Opts); k != want {
				t.Fatalf("%s job %d: the forwarded payload hashes to %s, the JSON job's key is %s\nbody: %s",
					name, i, k, want, body)
			}
		}
	})
}

// TestDecodeSolveEncodings: both spellings of one problem decode to jobs
// with one routing key, and the canon body comes back verbatim.
func TestDecodeSolveEncodings(t *testing.T) {
	in := gen.Random(gen.RandomConfig{Agents: 9, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1}, 4)
	raw, err := json.Marshal(mmlp.SolveRequest{Instance: in, R: 3})
	if err != nil {
		t.Fatal(err)
	}
	jjob, jbody, _, err := DecodeSolve(httptest.NewRecorder(), request("", raw), 1<<20)
	if err != nil || !bytes.Equal(jbody, raw) {
		t.Fatalf("json solve: %v (body returned %q)", err, jbody)
	}
	payload := engine.EncodeCanon(gen.Permuted(in), engine.Options{R: 3})
	cjob, cbody, _, err := DecodeSolve(httptest.NewRecorder(), request(mmlp.ContentTypeCanon, payload), 1<<20)
	if err != nil || !bytes.Equal(cbody, payload) || !bytes.Equal(cjob.Canon, payload) {
		t.Fatalf("canon solve: %v", err)
	}
	tjob, err := CanonJob(jjob)
	if err != nil {
		t.Fatal(err)
	}
	if RouteKey(tjob) != RouteKey(cjob) {
		t.Fatal("the JSON and canon spellings of one problem route apart")
	}
	for _, bad := range [][]byte{nil, []byte("junk"), []byte(canon.SolveMagic[:4])} {
		if _, _, status, err := DecodeSolve(httptest.NewRecorder(), request(mmlp.ContentTypeCanon, bad), 1<<20); status != http.StatusBadRequest || err == nil {
			t.Fatalf("unsniffable canon body %q: status %d", bad, status)
		}
	}
}

// TestDecodeBatchRejections pins the all-or-nothing batch verdicts.
func TestDecodeBatchRejections(t *testing.T) {
	cases := []struct {
		name, contentType string
		body              []byte
		status            int
		prefix            string
	}{
		{"empty json", "", []byte(`{"jobs":[]}`), http.StatusBadRequest, "batch has no jobs"},
		{"empty frame", mmlp.ContentTypeCanonBatch, canon.AppendBatch(nil, nil), http.StatusBadRequest, "batch has no jobs"},
		{"bad job", "", []byte(`{"jobs":[` + solveJSON + `,{"instance":{"num_agents":0},"r":1}]}`), http.StatusBadRequest, "job 1: "},
		{"junk frame", mmlp.ContentTypeCanonBatch, []byte("junk"), http.StatusBadRequest, "malformed batch frame: "},
		{"malformed json", "", []byte(`{"jobs":`), http.StatusBadRequest, "malformed JSON: "},
		{"oversized", "", []byte(`{"jobs":[` + strings.Repeat(solveJSON+",", 8) + solveJSON + `]}`), http.StatusRequestEntityTooLarge, "request body exceeds"},
	}
	for _, c := range cases {
		_, status, err := DecodeBatch(httptest.NewRecorder(), request(c.contentType, c.body), 1024)
		if status != c.status || err == nil || !strings.HasPrefix(err.Error(), c.prefix) {
			t.Fatalf("%s: (%d, %v), want (%d, %q…)", c.name, status, err, c.status, c.prefix)
		}
	}
}

// TestTrace: a shard echoes only a supplied ID, the router mints one and
// hands it to the handler's context; paths outside /v1/ are untouched.
func TestTrace(t *testing.T) {
	var seen string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = obs.TraceID(r.Context())
		Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, errors.New("rejected"))
	})
	cases := []struct {
		path, id string
		mint     bool
		want     string // "*" = any minted ID
	}{
		{"/v1/solve", "", false, ""},
		{"/v1/solve", "c0ffee", false, "c0ffee"},
		{"/v1/batch", "", true, "*"},
		{"/v1/delta", "c0ffee", true, "c0ffee"},
		{"/statsz", "c0ffee", true, ""},
	}
	for _, c := range cases {
		seen = ""
		r := httptest.NewRequest(http.MethodPost, c.path, nil)
		if c.id != "" {
			r.Header.Set(obs.TraceHeader, c.id)
		}
		w := httptest.NewRecorder()
		Trace(h, c.mint).ServeHTTP(w, r)
		got := w.Header().Get(obs.TraceHeader)
		if c.want == "*" && len(got) != 16 || c.want != "*" && got != c.want {
			t.Fatalf("%s id=%q mint=%v: echoed %q, want %q", c.path, c.id, c.mint, got, c.want)
		}
		if c.mint && seen != got {
			t.Fatalf("%s: handler context carries %q, response %q", c.path, seen, got)
		}
	}
}

// TestBatchWriter: Accept picks the record encoding, independently of the
// request's.
func TestBatchWriter(t *testing.T) {
	item := mmlp.BatchItem{Index: 2, SolveResponse: mmlp.SolveResponse{Status: "optimal", Utility: 1.5}}
	for _, accept := range []string{"", mmlp.ContentTypeCanonResults} {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
		r.Header.Set("Accept", accept)
		w := httptest.NewRecorder()
		write := BatchWriter(w, r)
		write(item)
		var got mmlp.BatchItem
		if accept == "" {
			if ct := w.Header().Get("Content-Type"); ct != mmlp.ContentTypeNDJSON {
				t.Fatalf("default Content-Type %q", ct)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
		} else {
			recs, err := canon.DecodeResults(w.Body.Bytes())
			if err != nil || len(recs) != 1 {
				t.Fatalf("result frame: %d records, %v", len(recs), err)
			}
			got = recs[0]
		}
		if got.Index != 2 || got.Utility != 1.5 || !w.Flushed {
			t.Fatalf("accept %q: record %+v, flushed %v", accept, got, w.Flushed)
		}
	}
}
