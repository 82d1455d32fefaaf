// Package lp is a self-contained sparse linear-programming solver.
//
// It solves problems of the form
//
//	minimize    c·x
//	subject to  a_i·x {≤,≥,=} b_i     for every constraint i
//	            0 ≤ x_j ≤ u_j         (u_j may be +∞)
//
// using a two-phase bounded-variable revised simplex on an LU-factorized
// basis. The paper's LP-HTA algorithm (Section III.A) needs an optimal
// solution of the relaxed problem P2; it cites Karmarkar's interior-point
// method [17], but any LP-optimal point works for the rounding and repair
// steps, and a simplex vertex solution has at most as many fractional
// entries as any interior optimum. Incremental keeps a solved basis alive
// and re-solves mutated problems by dual simplex.
//
// The implementation uses Dantzig pricing with an automatic switch to
// Bland's rule after a run of degenerate pivots, which guarantees
// termination. A dense-tableau simplex with the same rules is kept in the
// package tests as the cross-check oracle.
package lp
