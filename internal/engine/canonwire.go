package engine

// This file is the binary-wire solve path: requests that arrive as canon
// payloads (Content-Type: application/x-mmlp-canon) are keyed by hashing
// the raw bytes — canon's decoder accepts exactly one byte string per
// (instance, options) class, so canon.HashBytes(payload) IS the key
// SolveKey computes for the same request arriving as JSON — and decoded
// only on a cache miss, straight into the worker Scratch's decode arena.
// The warm path of a repeated canon request is therefore one key — a
// SHA-256 per 4 KiB chunk and one over their digests — and one cache
// lookup: no decode, no mmlp.Instance construction at all.

import (
	"context"
	"fmt"

	"repro/internal/canon"
	"repro/internal/mmlp"
)

// EncodeCanon encodes one solve as a canon wire payload — what a binary
// client sends where a JSON client sends a SolveRequest.
func EncodeCanon(in *mmlp.Instance, o mmlp.SolveOptions) []byte {
	return canon.EncodeSolve(in, o)
}

// decodeCanon decodes a payload into sc's arena. Wire errors wrap
// mmlp.ErrInvalid: a malformed payload is the binary twin of a JSON body
// that fails validation, and the serving layer maps both to one 400 path.
func decodeCanon(payload []byte, sc *Scratch) (*mmlp.Instance, mmlp.SolveOptions, error) {
	in, o, err := canon.DecodeSolve(payload, &sc.dec)
	if err != nil {
		return nil, mmlp.SolveOptions{}, fmt.Errorf("%w: canon request: %w", mmlp.ErrInvalid, err)
	}
	return in, o, nil
}

// SolveCanonBytes is the canon-payload counterpart of SolveCached: the key
// is canon.HashBytes of the raw bytes, a hit replays the stored result without
// decoding the payload at all, and a miss decodes into sc's arena and runs
// the pipeline. Results are bit-identical to the same request sent as JSON
// — both paths cache under the same key, so either encoding warms the
// other. Failed decodes and failed solves are never stored.
func SolveCanonBytes(ctx context.Context, payload []byte, sc *Scratch, ca *Cache) (sol *Solution, info *DistInfo, cached bool, err error) {
	rep, _, err := solve(ctx, Request{Canon: payload}, sc, ca, nil)
	return rep.Sol, rep.Dist, rep.Cached, err
}
