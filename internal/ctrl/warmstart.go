package ctrl

import (
	"repro/internal/idc"
	"repro/internal/mat"
)

// warmStart returns the first rung of the start ladder that passes qp's own
// StartFeasible check — the predicate SolveWith applies to X0, so a start
// accepted here is never sent to the LP phase-1:
//
//  1. the previous plan shifted one step (exact when demands and caps are
//     unchanged, and close to the new optimum);
//  2. the zero move (exact when U(k−1) still meets the new demands within
//     the caps);
//  3. the repaired allocation z = (U* − U(k−1), 0, …, 0) of repairStart,
//     which exists whenever the QP is feasible (DESIGN.md §3.4).
//
// When all three fail the QP is infeasible up to rounding. warmStart then
// returns nil, and qp's phase-1 runs and reports ErrInfeasible.
func (m *MPC) warmStart(top *idc.Topology, in StepInput, cd *condensed) []float64 {
	sc := &m.sc
	nu := top.NU()
	nz := nu * m.cfg.CtrlHorizon
	if len(m.prevZ) == nz {
		sc.shifted = mat.GrowVec(sc.shifted, nz)
		clear(sc.shifted)
		copy(sc.shifted, m.prevZ[nu:])
		if cd.ws.StartFeasible(&sc.ls, sc.shifted) {
			return sc.shifted
		}
	}
	sc.zero = mat.GrowVec(sc.zero, nz)
	clear(sc.zero) // reused buffer: clear stale contents
	if cd.ws.StartFeasible(&sc.ls, sc.zero) {
		return sc.zero
	}
	sc.repaired = mat.GrowVec(sc.repaired, nz)
	if m.repairStart(sc.repaired, top, in.PrevU, in.Demands, sc.phi) && cd.ws.StartFeasible(&sc.ls, sc.repaired) {
		return sc.repaired
	}
	return nil
}

// repairStart writes into z (length NU·β2) the move plan
// z = (U* − U(k−1), 0, …, 0) for an allocation U* that meets the demands L
// exactly, respects every IDC cap φ_j and is nonnegative. Since every
// horizon step shares one demand vector and one cap vector, that z is
// feasible for all β2 steps at once. It reports false, leaving z
// unspecified, when no such U* exists: a negative demand or cap, or
// Σ L > Σ φ.
//
// U* is built in O(C·N) from U(k−1), so the start stays close to the
// allocation the plant is running:
//
//  1. each portal's row of U(k−1) is rescaled to its new demand L_i (a row
//     with no load is spread in proportion to the caps);
//  2. every IDC column over its cap is scaled down to φ_j, and the load
//     removed from each portal is recorded;
//  3. the displaced load is filled into the IDCs with spare capacity, each
//     portal's share in proportion to the spare φ_j − load_j.
//
// Step 3 moves Σ displaced ≤ Σ spare exactly when Σ L ≤ Σ φ (the spare
// after step 2 is Σ φ − Σ L + Σ displaced), so the fill succeeds exactly
// when the QP is feasible. It relies on the full bipartite topology: every
// portal may send load to every IDC. Index(i, j) = j·C + i, so IDC j's
// column is the contiguous block z[j·C : (j+1)·C].
func (m *MPC) repairStart(z []float64, top *idc.Topology, prevU, demands, phi []float64) bool {
	c, n := top.C(), top.N()
	var totalL, totalPhi float64
	for _, l := range demands {
		if l < 0 {
			return false
		}
		totalL += l
	}
	for _, p := range phi {
		if p < 0 {
			return false
		}
		totalPhi += p
	}
	if totalL > totalPhi {
		return false
	}

	sc := &m.sc
	sc.rowSum = mat.GrowVec(sc.rowSum, c)
	sc.displaced = mat.GrowVec(sc.displaced, c)
	sc.colLoad = mat.GrowVec(sc.colLoad, n)
	rowSum, displaced, colLoad := sc.rowSum, sc.displaced, sc.colLoad
	u := z[:c*n] // U* is built in place of the first move block
	clear(rowSum)
	clear(displaced)
	for k, v := range prevU {
		if v > 0 {
			rowSum[k%c] += v
		}
	}

	// 1. Rescale each portal's row to its new demand.
	for j := 0; j < n; j++ {
		col := u[j*c : (j+1)*c]
		for i := range col {
			switch {
			case rowSum[i] > 0:
				col[i] = max(prevU[j*c+i], 0) * (demands[i] / rowSum[i])
			case totalPhi > 0:
				col[i] = demands[i] * (phi[j] / totalPhi)
			default:
				col[i] = 0
			}
		}
	}

	// 2. Scale every over-cap IDC column down to its cap.
	var totalDisplaced, totalSpare float64
	for j := 0; j < n; j++ {
		col := u[j*c : (j+1)*c]
		var load float64
		for _, v := range col {
			load += v
		}
		if load > phi[j] {
			f := phi[j] / load
			for i, v := range col {
				col[i] = v * f
				displaced[i] += v - col[i]
			}
			load = phi[j]
		}
		colLoad[j] = load
		totalSpare += phi[j] - load
	}
	for _, d := range displaced {
		totalDisplaced += d
	}

	// 3. Fill the displaced load into the spare capacity. Dividing by the
	// larger of the two totals keeps every column within its cap when
	// rounding leaves Σ displaced a few ulps above Σ spare.
	if totalDisplaced > 0 {
		den := max(totalSpare, totalDisplaced)
		for j := 0; j < n; j++ {
			spare := phi[j] - colLoad[j]
			if spare <= 0 {
				continue
			}
			f := spare / den
			col := u[j*c : (j+1)*c]
			for i, d := range displaced {
				col[i] += d * f
			}
		}
	}

	for k := range u {
		u[k] -= prevU[k]
	}
	clear(z[c*n:])
	return true
}
