package mmlp

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalid is wrapped by every error returned from Validate, so callers
// can test with errors.Is(err, mmlp.ErrInvalid).
var ErrInvalid = errors.New("invalid max-min LP instance")

// Validate checks structural well-formedness:
//
//   - agent indices are within [0, NumAgents),
//   - all coefficients are finite and strictly positive,
//   - no row mentions the same agent twice.
//
// Validate does not require every agent to appear in a constraint and an
// objective; degenerate agents are handled by transform.Preprocess, mirroring
// the assumptions spelled out at the start of §4 in the paper.
func (in *Instance) Validate() error {
	if in.NumAgents < 0 {
		return fmt.Errorf("%w: negative agent count %d", ErrInvalid, in.NumAgents)
	}
	// The duplicate-detection map is created lazily for wide rows only:
	// typical rows (ΔI, ΔK small constants) use the pairwise scan below, so
	// validating steady-state traffic does not allocate.
	var seen map[int]int
	for i, c := range in.Cons {
		if err := in.validateRow("constraint", i, c.Terms, &seen); err != nil {
			return err
		}
	}
	for k, o := range in.Objs {
		if err := in.validateRow("objective", k, o.Terms, &seen); err != nil {
			return err
		}
	}
	return nil
}

// wideRowTerms is the row width above which duplicate detection switches
// from the allocation-free quadratic scan to a map.
const wideRowTerms = 16

func (in *Instance) validateRow(kind string, row int, ts []Term, seen *map[int]int) error {
	wide := len(ts) > wideRowTerms
	if wide {
		if *seen == nil {
			*seen = make(map[int]int, 64)
		} else {
			clear(*seen)
		}
	}
	for j, t := range ts {
		if uint(t.Agent) >= uint(in.NumAgents) {
			return fmt.Errorf("%w: %s %d references agent %d outside [0,%d)",
				ErrInvalid, kind, row, t.Agent, in.NumAgents)
		}
		if !(t.Coef > 0 && t.Coef <= math.MaxFloat64) {
			return fmt.Errorf("%w: %s %d has non-positive or non-finite coefficient %v for agent %d",
				ErrInvalid, kind, row, t.Coef, t.Agent)
		}
		if wide {
			if prev, dup := (*seen)[t.Agent]; dup {
				return fmt.Errorf("%w: %s %d mentions agent %d twice (terms %d and %d)",
					ErrInvalid, kind, row, t.Agent, prev, j)
			}
			(*seen)[t.Agent] = j
			continue
		}
		for p := 0; p < j; p++ {
			if ts[p].Agent == t.Agent {
				return fmt.Errorf("%w: %s %d mentions agent %d twice (terms %d and %d)",
					ErrInvalid, kind, row, t.Agent, p, j)
			}
		}
	}
	return nil
}

// ValidateStrict additionally enforces the non-degeneracy assumptions of §4:
// every constraint and objective has at least one agent, and every agent
// appears in at least one constraint and at least one objective. Instances
// that fail ValidateStrict but pass Validate can be repaired with
// transform.Preprocess.
func (in *Instance) ValidateStrict() error {
	if err := in.Validate(); err != nil {
		return err
	}
	for i, c := range in.Cons {
		if len(c.Terms) == 0 {
			return fmt.Errorf("%w: constraint %d has no agents", ErrInvalid, i)
		}
	}
	for k, o := range in.Objs {
		if len(o.Terms) == 0 {
			return fmt.Errorf("%w: objective %d has no agents", ErrInvalid, k)
		}
	}
	// Membership flags replace the full Incidence: ValidateStrict runs once
	// per solve, so only the row *presence* matters here.
	inCons := make([]bool, in.NumAgents)
	inObjs := make([]bool, in.NumAgents)
	for _, c := range in.Cons {
		for _, t := range c.Terms {
			inCons[t.Agent] = true
		}
	}
	for _, o := range in.Objs {
		for _, t := range o.Terms {
			inObjs[t.Agent] = true
		}
	}
	for v := 0; v < in.NumAgents; v++ {
		if !inCons[v] {
			return fmt.Errorf("%w: agent %d is unconstrained", ErrInvalid, v)
		}
		if !inObjs[v] {
			return fmt.Errorf("%w: agent %d contributes to no objective", ErrInvalid, v)
		}
	}
	return nil
}
