package httperr

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mmlp"
)

// envelopeOf decodes a recorded error response, failing unless it is the
// JSON envelope.
func envelopeOf(t *testing.T, w *httptest.ResponseRecorder) mmlp.ErrorDetail {
	t.Helper()
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var er mmlp.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", w.Body, err)
	}
	return er.Error
}

func TestWrite(t *testing.T) {
	cases := []struct {
		status int
		code   string
		msg    string
	}{
		{http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, "bad input"},
		{http.StatusNotFound, mmlp.ErrCodeBaseUnknown, "no base"},
		{http.StatusTooManyRequests, mmlp.ErrCodeOverloaded, "queue full"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		Write(w, c.status, c.code, errors.New(c.msg))
		if w.Code != c.status {
			t.Fatalf("%s: status %d, want %d", c.code, w.Code, c.status)
		}
		if got := envelopeOf(t, w); got.Code != c.code || got.Message != c.msg {
			t.Fatalf("envelope = %+v, want {%s %s}", got, c.code, c.msg)
		}
	}
}

func TestCodeForStatus(t *testing.T) {
	cases := map[int]string{
		http.StatusBadRequest:            mmlp.ErrCodeInvalidArgument,
		http.StatusNotFound:              mmlp.ErrCodeNotFound,
		http.StatusMethodNotAllowed:      mmlp.ErrCodeMethodNotAllowed,
		http.StatusConflict:              mmlp.ErrCodeConflict,
		http.StatusRequestEntityTooLarge: mmlp.ErrCodeBodyTooLarge,
		http.StatusTooManyRequests:       mmlp.ErrCodeOverloaded,
		http.StatusBadGateway:            mmlp.ErrCodeBadGateway,
		http.StatusServiceUnavailable:    mmlp.ErrCodeUnavailable,
		http.StatusGatewayTimeout:        mmlp.ErrCodeDeadlineExceeded,
		http.StatusInternalServerError:   mmlp.ErrCodeInternal,
		http.StatusTeapot:                mmlp.ErrCodeInternal,
	}
	for status, want := range cases {
		if got := CodeForStatus(status); got != want {
			t.Fatalf("CodeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

// flushRecorder counts Flush calls on top of a ResponseRecorder.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

func TestEnvelope(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, _ *http.Request) {
		Write(w, http.StatusNotFound, mmlp.ErrCodeBaseUnknown, errors.New("authored"))
	})
	mux.HandleFunc("GET /stream", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("a\n"))
		w.(http.Flusher).Flush()
		w.Write([]byte("b\n"))
	})
	h := Envelope(mux)

	cases := []struct {
		name, method, path string
		status             int
		code, message      string
	}{
		{"mux 404", http.MethodGet, "/nope", http.StatusNotFound, mmlp.ErrCodeNotFound, "GET /nope: not found"},
		{"mux 405", http.MethodGet, "/v1/solve", http.StatusMethodNotAllowed, mmlp.ErrCodeMethodNotAllowed, "GET /v1/solve: method not allowed"},
		{"authored 404", http.MethodPost, "/v1/solve", http.StatusNotFound, mmlp.ErrCodeBaseUnknown, "authored"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, nil))
		if w.Code != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, w.Code, c.status)
		}
		if got := envelopeOf(t, w); got.Code != c.code || got.Message != c.message {
			t.Fatalf("%s: envelope %+v, want {%s %s}", c.name, got, c.code, c.message)
		}
		if strings.Contains(w.Body.String(), "page not found") {
			t.Fatalf("%s: the mux's plain-text body leaked: %q", c.name, w.Body)
		}
	}

	fw := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if fw.Code != http.StatusOK || fw.Body.String() != "a\nb\n" {
		t.Fatalf("stream: status %d body %q", fw.Code, fw.Body)
	}
	if fw.flushes != 1 {
		t.Fatalf("stream: %d flushes reached the writer, want 1", fw.flushes)
	}
}

// TestBodyLimits pins the shared 400/413 mapping of both body readers.
func TestBodyLimits(t *testing.T) {
	const limit = 16
	cases := []struct {
		name, body string
		status     int
		msg        string
	}{
		{"fits", `{"a":1}`, 0, ""},
		{"oversized", `{"a":"` + strings.Repeat("x", 64) + `"}`, http.StatusRequestEntityTooLarge, "request body exceeds 16 bytes"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		body, status, err := ReadBody(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body)), limit)
		if status != c.status || (err == nil) != (c.msg == "") || (err != nil && err.Error() != c.msg) {
			t.Fatalf("ReadBody %s: (%d, %v), want (%d, %q)", c.name, status, err, c.status, c.msg)
		}
		if err == nil && string(body) != c.body {
			t.Fatalf("ReadBody %s: body %q", c.name, body)
		}

		var dst map[string]any
		_, status, err = ReadJSON(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body)), limit, &dst)
		if status != c.status || (err == nil) != (c.msg == "") || (err != nil && err.Error() != c.msg) {
			t.Fatalf("ReadJSON %s: (%d, %v), want (%d, %q)", c.name, status, err, c.status, c.msg)
		}
	}
	var dst map[string]any
	_, status, err := ReadJSON(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{nope`)), limit, &dst)
	if status != http.StatusBadRequest || err == nil || !strings.HasPrefix(err.Error(), "malformed JSON: ") {
		t.Fatalf("malformed JSON: (%d, %v), want 400 malformed JSON", status, err)
	}
}

func TestMediaType(t *testing.T) {
	cases := map[string]string{
		"":                                mmlp.ContentTypeJSON,
		"application/json; charset=utf-8": "application/json",
		mmlp.ContentTypeCanon:             mmlp.ContentTypeCanon,
		"Application/X-Mmlp-Canon-Batch":  mmlp.ContentTypeCanonBatch,
		"not a media type; =":             "not a media type; =",
	}
	for ct, want := range cases {
		r := httptest.NewRequest(http.MethodPost, "/", nil)
		if ct != "" {
			r.Header.Set("Content-Type", ct)
		}
		if got := MediaType(r); got != want {
			t.Fatalf("MediaType(%q) = %q, want %q", ct, got, want)
		}
	}
}
