package httperr

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mmlp"
)

// TestUnencodableAnswers: the writers are the last line of defence
// against an answer JSON cannot carry. A solve or delta answer and any
// other response answer 500 internal instead of an empty 200, and an
// NDJSON batch record becomes an error line for its job.
func TestUnencodableAnswers(t *testing.T) {
	nan := math.NaN()
	for name, write := range map[string]func(http.ResponseWriter){
		"solve": func(w http.ResponseWriter) {
			WriteAnswer(w, &mmlp.SolveResponse{Status: "approximate", X: []float64{1, nan}}, nil)
		},
		"delta": func(w http.ResponseWriter) {
			WriteAnswer(w, &mmlp.DeltaResponse{Status: "approximate", Utility: math.Inf(1)}, mmlp.EncodeX([]float64{1}))
		},
		"json": func(w http.ResponseWriter) { WriteJSON(w, map[string]float64{"x": nan}) },
	} {
		w := httptest.NewRecorder()
		write(w)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", name, w.Code)
		}
		if e := envelopeOf(t, w); e.Code != mmlp.ErrCodeInternal || !strings.Contains(e.Message, "unsupported value") {
			t.Fatalf("%s: error %+v", name, e)
		}
	}

	w := httptest.NewRecorder()
	emit := BatchWriter(w, httptest.NewRequest(http.MethodPost, "/v1/batch", nil))
	emit(mmlp.BatchItem{Index: 3, SolveResponse: mmlp.SolveResponse{Status: "approximate", UpperBound: nan}})
	emit(mmlp.BatchItem{Index: 4, SolveResponse: mmlp.SolveResponse{Status: "optimal", X: []float64{0.5}}})
	lines := bytes.Split(bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want one per record: %q", len(lines), w.Body)
	}
	var bad, good mmlp.BatchItem
	if err := json.Unmarshal(lines[0], &bad); err != nil || bad.Index != 3 || !strings.Contains(bad.Error, "unsupported value") {
		t.Fatalf("unencodable record's line %q (%v), want an error line for job 3", lines[0], err)
	}
	if err := json.Unmarshal(lines[1], &good); err != nil || good.Index != 4 || good.Error != "" || good.X[0] != 0.5 {
		t.Fatalf("next record's line %q (%v)", lines[1], err)
	}
}
