package batch_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// TestWiresAcceptTheSameOptions walks every option bound through both
// request decoders: a JSON request is accepted exactly when the canon
// payload carrying the same values is, an accepted value decodes to its
// normalized fields on both wires, and both spellings of it key alike.
func TestWiresAcceptTheSameOptions(t *testing.T) {
	in := gen.TriNecklace(3)
	engines := append(mmlp.EngineNames(), "simplex") // name i is engine value i
	norm := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	for eng, name := range engines {
		for _, r := range []int{-1, 0, 1, 2, mmlp.MaxWireR, mmlp.MaxWireR + 1} {
			for _, bin := range []int{-1, 0, 1, mmlp.MaxWireBinIters, mmlp.MaxWireBinIters + 1} {
				for flags := 0; flags < 4; flags++ {
					dsc, check := flags&1 != 0, flags&2 != 0
					at := fmt.Sprintf("engine %q r=%d bin_iters=%d flags=%d", name, r, bin, flags)
					job, jerr := batch.JobFromRequest(&mmlp.SolveRequest{Instance: in, Engine: name,
						R: r, BinIters: bin, DisableSpecialCases: dsc, SelfCheck: check})
					payload := engine.EncodeCanon(in, engine.Options{Engine: mmlp.Engine(eng),
						R: r, BinIters: bin, DisableSpecialCases: dsc, SelfCheck: check})
					_, co, cerr := canon.DecodeSolve(payload, nil)
					if (jerr == nil) != (cerr == nil) {
						t.Fatalf("%s: JSON error %v, canon error %v", at, jerr, cerr)
					}
					if jerr != nil {
						if !errors.Is(jerr, mmlp.ErrInvalid) || !errors.Is(cerr, canon.ErrRange) {
							t.Fatalf("%s: JSON error %v (want ErrInvalid), canon error %v (want ErrRange)", at, jerr, cerr)
						}
						continue
					}
					wantR, wantBin := norm(r, 3), norm(bin, 100)
					if int(co.Engine) != eng || co.R != wantR || co.BinIters != wantBin ||
						co.DisableSpecialCases != dsc || co.SelfCheck != check {
						t.Fatalf("%s: canon decodes %+v", at, co)
					}
					jo := job.Opts
					if int(jo.Engine) != eng || norm(jo.R, 3) != wantR || norm(jo.BinIters, 100) != wantBin ||
						jo.DisableSpecialCases != dsc || jo.SelfCheck != check {
						t.Fatalf("%s: JSON decodes %+v", at, jo)
					}
					key := engine.SolveKey(in, jo)
					if key != canon.HashBytes(engine.EncodeCanon(in, jo)) || key != canon.HashBytes(payload) {
						t.Fatalf("%s: the JSON job and the canon payload key apart", at)
					}
				}
			}
		}
	}
}
