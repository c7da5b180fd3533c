package batch

import (
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/mmlp"
)

// JobFromRequest converts a validated wire request into a solver job.
func JobFromRequest(req *mmlp.SolveRequest) (Job, error) {
	if err := req.Validate(); err != nil {
		return Job{}, err
	}
	eng, err := mmlp.ParseEngine(req.Engine)
	if err != nil { // unreachable after Validate
		return Job{}, err
	}
	return Job{
		In: req.Instance,
		Opts: engine.Options{
			Engine:              eng,
			R:                   req.R,
			BinIters:            req.BinIters,
			DisableSpecialCases: req.DisableSpecialCases,
			SelfCheck:           req.SelfCheck,
		},
	}, nil
}

// JobFromDelta converts a validated wire delta request into a pool job.
func JobFromDelta(req *mmlp.DeltaRequest) (Job, error) {
	if err := req.Validate(); err != nil {
		return Job{}, err
	}
	var key canon.Key
	if _, err := hex.Decode(key[:], []byte(req.Base)); err != nil { // unreachable after Validate
		return Job{}, fmt.Errorf("%w: base: %v", mmlp.ErrInvalid, err)
	}
	return Job{Delta: &DeltaJob{Base: key, Edits: req.Edits}}, nil
}

// JobFromCanon wraps one canon wire payload as a job. No decoding happens
// here: the payload is keyed by its hash and decoded lazily on a cache
// miss, so malformed payloads surface as job errors, exactly like invalid
// JSON instances do.
func JobFromCanon(payload []byte) Job { return Job{Canon: payload} }

// ResponseFromResult renders a successful result on the wire. The caller
// must not pass a failed result (nil Sol).
func ResponseFromResult(r Result) mmlp.SolveResponse {
	resp := mmlp.SolveResponse{
		Status:     r.Sol.Status.String(),
		X:          r.Sol.X,
		Utility:    r.Sol.Utility,
		UpperBound: r.Sol.UpperBound,
		LatencyMS:  float64(r.Latency) / float64(time.Millisecond),
		Cached:     r.Cached,
	}
	if r.Dist != nil {
		resp.Rounds = r.Dist.Rounds
		resp.Messages = r.Dist.Messages
		resp.Bytes = r.Dist.Bytes
	}
	return resp
}

// DeltaResponseFromResult renders a successful delta result on the wire.
// The caller must not pass a failed result (nil Sol or nil Delta).
func DeltaResponseFromResult(r Result) mmlp.DeltaResponse {
	return mmlp.DeltaResponse{
		Status:      r.Sol.Status.String(),
		X:           r.Sol.X,
		Utility:     r.Sol.Utility,
		UpperBound:  r.Sol.UpperBound,
		Key:         r.Delta.Key.String(),
		DirtyAgents: r.Delta.DirtyAgents,
		TotalAgents: r.Delta.TotalAgents,
		Spliced:     r.Delta.Spliced,
		Cached:      r.Cached,
		LatencyMS:   float64(r.Latency) / float64(time.Millisecond),
	}
}

// ItemFromResult renders one batch NDJSON line.
func ItemFromResult(r Result) mmlp.BatchItem {
	item := mmlp.BatchItem{Index: r.Index}
	if r.Err != nil {
		item.Error = r.Err.Error()
		return item
	}
	item.SolveResponse = ResponseFromResult(r)
	return item
}
