// Package httperr is the HTTP front mmlpserve and mmlprouter share: both
// tiers serve one wire contract, so its request decoders, response
// writers, error envelope and process shell exist here once.
//
// Every non-2xx response carries the same body —
// {"error":{"code":"…","message":"…"}} — with a stable machine code from
// the mmlp.ErrCode* vocabulary, so clients and the router branch on the
// code instead of parsing English. Envelope wraps an http.Handler so the
// net/http mux's own plain-text fallbacks (404 page not found, 405 method
// not allowed) speak the envelope too. Decoding failures map onto 400 and
// 413 (see front.go); Serve is the listen/signal/shutdown shell.
package httperr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strings"
	"sync"

	"repro/internal/mmlp"
)

// maxPresize caps the buffer ReadBody allocates from a body's declared
// length before reading it: a client that claims the limit and sends ten
// bytes must not make the server allocate the limit.
const maxPresize = 1 << 20

// ReadBody reads r's body whole, capped at limit bytes. On failure it
// returns the status to answer with: 413 for an oversized body, 400 for
// any other read error. The buffer is allocated up front for the declared
// length, capped at limit and maxPresize, plus the read that sees the end,
// so a body up to maxPresize costs one buffer. Past the cap, or with no
// declared length, the buffer doubles as it fills: about twice the body in
// allocations, where io.ReadAll's finer steps cost several times it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	var buf []byte
	if n := min(r.ContentLength, limit, maxPresize); n > 0 {
		buf = make([]byte, 0, n+bytes.MinRead)
	}
	b := bytes.NewBuffer(buf)
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
	}
	return b.Bytes(), 0, nil
}

// ReadJSON is ReadBody followed by one strict json.Unmarshal into dst: the
// raw bytes come back for callers that forward them, and trailing data
// after the value is malformed JSON (400).
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, dst any) ([]byte, int, error) {
	body, status, err := ReadBody(w, r, limit)
	if err != nil {
		return nil, status, err
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("malformed JSON: %w", err)
	}
	return body, 0, nil
}

// MediaType extracts the request's media type; parameters (charset etc.)
// are irrelevant to routing, and an absent header means JSON.
func MediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return mmlp.ContentTypeJSON
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ct
	}
	return mt
}

// Write emits one enveloped error response.
func Write(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", mmlp.ContentTypeJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(mmlp.ErrorResponse{
		Error: mmlp.ErrorDetail{Code: code, Message: err.Error()},
	})
}

// WriteJSON emits one 200 JSON response, the bytes json.Encoder writes
// for v; a v it cannot encode answers 500 internal instead.
func WriteJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		Write(w, http.StatusInternalServerError, mmlp.ErrCodeInternal, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", mmlp.ContentTypeJSON)
	w.Write(append(b, '\n'))
}

// answerBufs recycles the buffers answers are encoded into, so a reply
// costs no allocation once the pool is warm.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteAnswer emits one 200 JSON answer through mmlp.AppendAnswer, base
// being the memo a delta's reply splices from (nil for a solve). An
// answer it cannot encode answers 500 internal instead.
func WriteAnswer[T mmlp.Answer](w http.ResponseWriter, v *T, base *mmlp.EncodedX) {
	p := answerBufs.Get().(*[]byte)
	defer answerBufs.Put(p)
	b, err := mmlp.AppendAnswer((*p)[:0], v, base)
	*p = b
	if err != nil {
		Write(w, http.StatusInternalServerError, mmlp.ErrCodeInternal, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", mmlp.ContentTypeJSON)
	w.Write(b)
}

// CodeForStatus maps an HTTP status onto its default machine code — for
// call sites whose status is computed (body-size limits, decode failures)
// rather than chosen alongside a specific code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return mmlp.ErrCodeInvalidArgument
	case http.StatusNotFound:
		return mmlp.ErrCodeNotFound
	case http.StatusMethodNotAllowed:
		return mmlp.ErrCodeMethodNotAllowed
	case http.StatusConflict:
		return mmlp.ErrCodeConflict
	case http.StatusRequestEntityTooLarge:
		return mmlp.ErrCodeBodyTooLarge
	case http.StatusTooManyRequests:
		return mmlp.ErrCodeOverloaded
	case http.StatusBadGateway:
		return mmlp.ErrCodeBadGateway
	case http.StatusServiceUnavailable:
		return mmlp.ErrCodeUnavailable
	case http.StatusGatewayTimeout:
		return mmlp.ErrCodeDeadlineExceeded
	default:
		return mmlp.ErrCodeInternal
	}
}

// Envelope wraps h so 404/405 responses h did not author itself — the
// mux's plain-text "404 page not found" and "405 method not allowed"
// fallbacks — are rewritten into the envelope. Responses that already
// carry a JSON content type (every handler-authored error goes through
// Write) pass through untouched, as does everything else: streaming,
// flushing and status codes are preserved.
func Envelope(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&envelopeWriter{rw: w, req: r}, r)
	})
}

// envelopeWriter intercepts the first WriteHeader: a non-JSON 404/405 at
// that point can only be the mux fallback (handlers write the envelope
// with the JSON content type already set), so its body is replaced and
// the original plain-text body swallowed.
type envelopeWriter struct {
	rw      http.ResponseWriter
	req     *http.Request
	swallow bool
	wrote   bool
}

func (w *envelopeWriter) Header() http.Header { return w.rw.Header() }

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wrote {
		w.rw.WriteHeader(status)
		return
	}
	w.wrote = true
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.rw.Header().Get("Content-Type"), mmlp.ContentTypeJSON) {
		w.swallow = true
		Write(w.rw, status, CodeForStatus(status), fmt.Errorf("%s %s: %s", w.req.Method, w.req.URL.Path,
			strings.ToLower(http.StatusText(status))))
		return
	}
	w.rw.WriteHeader(status)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true // implicit 200: nothing to rewrite
	}
	if w.swallow {
		return len(b), nil
	}
	return w.rw.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (batch
// NDJSON) keep their per-record flushes through the wrapper.
func (w *envelopeWriter) Flush() {
	if f, ok := w.rw.(http.Flusher); ok {
		f.Flush()
	}
}
