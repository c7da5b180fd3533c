// Package dist executes the §5 local algorithm as an honest synchronous
// message-passing protocol on the bipartite communication graph
// G = (V ∪ I ∪ K, E) of a structured max-min LP: one goroutine per agent,
// constraint and objective node, one barrier per round, messages travelling
// only along edges, and per-round traffic accounting. A run takes exactly
// 12(R−2)+8 rounds regardless of the network size — the defining property
// of a local algorithm — and its T and X vectors are bit-identical to the
// centralised engine's (core.Solve), because both sides evaluate the same
// exported per-node kernels in the same order.
//
// Two stage-1 protocols are provided:
//
//   - SolveDistributed — anonymous view gathering (the port-numbering
//     model of §1.2 and of arXiv:0710.1499, arXiv:0804.4815): in 4r+3
//     rounds every node assembles the truncated unfolding of §3 rooted at
//     itself, then runs the t_u binary search on it — plain bisection,
//     one evaluation per halving, kept as the reference the centralised
//     kernel's threshold search must match, so every dist-vs-central
//     comparison also compares the two searches. View messages are
//     trees, so Stats.Bytes grows exponentially with R;
//     Stats.CompressedBytes re-counts them in the standard DAG encoding
//     (equal subtrees stored once), and Stats.MaxMessageBytes grows with R
//     but not with the instance size.
//
//   - SolveDistributedCompact — identifier-based record gossip: nodes
//     flood O(degree)-byte records of their local rows until each holds
//     its radius-(4r+3) ball, checked hop by hop, and keep only the ids
//     they heard. Each agent then prices t_u on a kernel evaluator
//     (core.Evaluator) borrowed from a pool of GOMAXPROCS, so the
//     simulator's memory is linear in the network size. Message sizes
//     stay polynomial; outputs are bit-identical to the anonymous
//     protocol.
//
// The remaining phases are shared: 2r+1 min-diffusion iterations (two
// rounds each) for the smoothing of §5.3, one objective round trip for
// g−_0 plus a constraint and an objective round trip per depth d = 1…r for
// the recursions (12)–(14), and a final message-free round in which every
// agent evaluates the output (18).
//
// Both simulators take a context and check it at every round barrier: a
// run whose deadline passes stops at the next barrier with the context's
// error.
package dist
