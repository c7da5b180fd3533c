// Package transform implements the locally computable reductions of §4 of
// the paper, which turn an arbitrary max-min LP into the structured form
// required by the algorithm of §5:
//
//	|Vi| = 2  for every constraint,
//	|Kv| = 1  for every agent,
//	|Vk| ≥ 2  for every objective,
//	c_kv = 1  for every objective coefficient.
//
// structured.FromMMLP checks these preconditions when it builds the
// compact form that §5 runs on.
//
// Each step produces a transformed instance together with a back-mapping
// that converts any feasible solution of the transformed instance into a
// feasible solution of the original whose utility is no smaller (up to the
// deliberate ΔI/2 scaling of the degree-reduction step §4.3). Steps compose
// into a Pipeline.
//
// The pipeline is built to run allocation-free in steady state: Preprocess
// and the five steps build their intermediate instances in mmlp.Arenas,
// the repository's one instance arena, and write their index tables and
// back-map arrays into buffers, all held by a per-worker Scratch (see
// PreprocessScratch and StructureScratch); back-mappings are data-driven
// BackMap records applied through one shared routine rather than
// per-solve closures.
//
// The paper performs these rewrites inside each node's local view to keep
// the algorithm distributed; the rewrite rules themselves are deterministic
// and local (each looks only at a constant-radius neighbourhood), so
// applying them to the whole instance — as this package does — produces the
// same transformed network that the per-node views would stitch together.
package transform

import (
	"fmt"

	"repro/internal/mmlp"
)

// Step is one applied transformation.
type Step struct {
	// Name identifies the paper section, e.g. "§4.3 degree reduction".
	Name string
	// Out is the instance after the step.
	Out *mmlp.Instance
	// Back maps a solution of Out to a solution of the step's input.
	Back BackMap
}

// Pipeline is a composed sequence of transformation steps. A pipeline
// built by StructureScratch aliases the arena it was built in and is valid
// until the arena's next use.
type Pipeline struct {
	// Input is the original instance handed to Structure.
	Input *mmlp.Instance
	// Steps lists the applied transformations in application order.
	Steps []Step

	// bufs are the ping-pong buffers of Back, retained across calls.
	bufs [2][]float64
}

// Final returns the instance after the last step (Input when no steps ran).
func (p *Pipeline) Final() *mmlp.Instance {
	if len(p.Steps) == 0 {
		return p.Input
	}
	return p.Steps[len(p.Steps)-1].Out
}

// Back maps a feasible solution of Final() back to the original instance by
// applying the step back-maps in reverse order. The result aliases the
// pipeline's reusable buffers (or x itself for an empty pipeline) and is
// valid until the next Back call; callers that keep it must copy it.
func (p *Pipeline) Back(x []float64) []float64 { return p.BackInto(x, &p.bufs) }

// BackInto is Back ping-ponging through bufs instead of the pipeline's own
// buffers, so goroutines can share one pipeline read-only, each back-
// mapping through its own bufs. The result aliases bufs (or x itself for
// an empty pipeline).
func (p *Pipeline) BackInto(x []float64, bufs *[2][]float64) []float64 {
	for s := len(p.Steps) - 1; s >= 0; s-- {
		bufs[0] = p.Steps[s].Back.ApplyInto(x, bufs[0])
		x = bufs[0]
		bufs[0], bufs[1] = bufs[1], bufs[0]
	}
	return x
}

// Structure applies the full §4 pipeline (after Preprocess has removed
// degenerate nodes — see Preprocess; Structure requires a strictly valid
// input) and returns the composed pipeline. The final instance is in the
// structured form of §5, whose preconditions structured.FromMMLP checks.
func Structure(in *mmlp.Instance) (*Pipeline, error) {
	return StructureScratch(in, nil)
}

// StructureScratch is Structure building every intermediate instance and
// back-map into sc's reusable arena (nil sc allocates a private one). The
// returned pipeline aliases sc and is valid until its next use; warm
// arenas make the whole §4 stage allocation-free.
//
// A step with nothing to rewrite hands its input on (see steps.go), so an
// input already in structured form passes through uncopied: every
// Step.Out is in itself, and the back-maps are still the steps' own.
func StructureScratch(in *mmlp.Instance, sc *Scratch) (*Pipeline, error) {
	if sc == nil {
		sc = NewScratch()
	}
	if err := in.ValidateStrict(); err != nil {
		return nil, fmt.Errorf("transform: input must be strictly valid (run Preprocess first): %w", err)
	}
	p := &sc.pl
	p.Input = in
	p.Steps = p.Steps[:0]
	cur := in
	var back BackMap
	cur, back = augmentSingletonConstraints(cur, sc, &sc.outs[0], true)
	p.Steps = append(p.Steps, Step{Name: "§4.2 augment singleton constraints", Out: cur, Back: back})
	cur, back = reduceConstraintDegree(cur, sc, &sc.outs[1], true)
	p.Steps = append(p.Steps, Step{Name: "§4.3 reduce constraint degree", Out: cur, Back: back})
	cur, back = splitAgentsPerObjective(cur, sc, &sc.outs[2], true)
	p.Steps = append(p.Steps, Step{Name: "§4.4 one objective per agent", Out: cur, Back: back})
	cur, back = augmentSingletonObjectives(cur, sc, &sc.outs[3], true)
	p.Steps = append(p.Steps, Step{Name: "§4.5 augment singleton objectives", Out: cur, Back: back})
	cur, back = normalizeCoefficients(cur, sc, &sc.outs[4], true)
	p.Steps = append(p.Steps, Step{Name: "§4.6 normalise coefficients", Out: cur, Back: back})
	return p, nil
}
