//! The Hungarian (Kuhn-Munkres) algorithm for minimum-cost assignment,
//! used by the paper to associate detection windows with ground-truth
//! annotations under the `S_eyes` cost (§VI-B, reference 30 of the paper).
//!
//! O(n^3) shortest-augmenting-path formulation over a rectangular cost
//! matrix (rows = detections, columns = annotations); when rows exceed
//! columns the surplus rows stay unassigned.

/// Solve min-cost assignment. `cost[r][c]` is the cost of assigning row
/// `r` to column `c`; entries may be `f64::INFINITY` to forbid a pair.
///
/// Returns, per row, the assigned column (or `None`). Each column is used
/// at most once. The assignment minimizes total cost over all maximum
/// matchings of the finite-cost bipartite graph.
pub fn assign_min_cost(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
    let n_rows = cost.len();
    if n_rows == 0 {
        return Vec::new();
    }
    let n_cols = cost[0].len();
    assert!(cost.iter().all(|r| r.len() == n_cols), "ragged cost matrix");
    if n_cols == 0 {
        return vec![None; n_rows];
    }

    // Square the problem: pad with dummy rows/columns of large-but-finite
    // cost so the JV-style potentials stay finite. Forbidden (infinite)
    // pairs get the same large cost and are filtered out afterwards.
    let n = n_rows.max(n_cols);
    let finite_max =
        cost.iter().flatten().copied().filter(|c| c.is_finite()).fold(0.0f64, f64::max);
    let big = 1e6 + 2.0 * finite_max.abs() * (n as f64 + 1.0);
    let at = |r: usize, c: usize| -> f64 {
        if r < n_rows && c < n_cols {
            let v = cost[r][c];
            if v.is_finite() {
                v
            } else {
                big
            }
        } else {
            big
        }
    };

    // Shortest augmenting path with potentials (1-indexed internals).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[col] = row assigned to col
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = at(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut out = vec![None; n_rows];
    for j in 1..=n {
        let r = p[j];
        if r >= 1 && r <= n_rows && j <= n_cols && cost[r - 1][j - 1].is_finite() {
            out[r - 1] = Some(j - 1);
        }
    }
    out
}

/// Total cost of an assignment (for tests / reporting).
pub fn assignment_cost(cost: &[Vec<f64>], assignment: &[Option<usize>]) -> f64 {
    assignment.iter().enumerate().filter_map(|(r, c)| c.map(|c| cost[r][c])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_classic_3x3() {
        let cost = vec![vec![4.0, 1.0, 3.0], vec![2.0, 0.0, 5.0], vec![3.0, 2.0, 2.0]];
        let a = assign_min_cost(&cost);
        // Optimal: r0->c1 (1), r1->c0 (2), r2->c2 (2) = 5.
        assert_eq!(a, vec![Some(1), Some(0), Some(2)]);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
    }

    #[test]
    fn identity_is_optimal_on_diagonal_matrices() {
        let n = 6;
        let cost: Vec<Vec<f64>> =
            (0..n).map(|r| (0..n).map(|c| if r == c { 0.0 } else { 10.0 }).collect()).collect();
        let a = assign_min_cost(&cost);
        for (r, c) in a.iter().enumerate() {
            assert_eq!(*c, Some(r));
        }
    }

    #[test]
    fn rectangular_more_rows_than_columns() {
        // 3 detections, 1 annotation: exactly one gets it, the cheapest.
        let cost = vec![vec![5.0], vec![1.0], vec![3.0]];
        let a = assign_min_cost(&cost);
        assert_eq!(a, vec![None, Some(0), None]);
    }

    #[test]
    fn rectangular_more_columns_than_rows() {
        let cost = vec![vec![9.0, 2.0, 7.0]];
        let a = assign_min_cost(&cost);
        assert_eq!(a, vec![Some(1)]);
    }

    #[test]
    fn infinite_costs_forbid_pairs() {
        let inf = f64::INFINITY;
        let cost = vec![vec![inf, 1.0], vec![inf, inf]];
        let a = assign_min_cost(&cost);
        assert_eq!(a[0], Some(1));
        assert_eq!(a[1], None, "row 1 has no finite column");
    }

    #[test]
    fn beats_greedy_on_an_adversarial_case() {
        // Greedy (row-wise min) picks r0->c0 (1), forcing r1->c1 (100):
        // total 101. Optimal is r0->c1 (2) + r1->c0 (3) = 5.
        let cost = vec![vec![1.0, 2.0], vec![3.0, 100.0]];
        let a = assign_min_cost(&cost);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
    }

    #[test]
    fn empty_inputs() {
        assert!(assign_min_cost(&[]).is_empty());
        let no_cols: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert_eq!(assign_min_cost(&no_cols), vec![None, None]);
    }

    #[test]
    fn matches_bruteforce_on_random_matrices() {
        // Exhaustive check over all permutations for n = 4.
        let mut seed = 123456789u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) * 10.0
        };
        for _ in 0..25 {
            let cost: Vec<Vec<f64>> = (0..4).map(|_| (0..4).map(|_| rnd()).collect()).collect();
            let a = assign_min_cost(&cost);
            let got = assignment_cost(&cost, &a);
            // Brute force.
            let mut best = f64::INFINITY;
            let perm = [0usize, 1, 2, 3];
            let mut perms = vec![perm];
            // Generate all permutations of 4 elements.
            fn heap(k: usize, arr: &mut [usize; 4], out: &mut Vec<[usize; 4]>) {
                if k == 1 {
                    out.push(*arr);
                    return;
                }
                for i in 0..k {
                    heap(k - 1, arr, out);
                    if k.is_multiple_of(2) {
                        arr.swap(i, k - 1);
                    } else {
                        arr.swap(0, k - 1);
                    }
                }
            }
            let mut arr = perm;
            perms.clear();
            heap(4, &mut arr, &mut perms);
            for p in &perms {
                let c: f64 = (0..4).map(|r| cost[r][p[r]]).sum();
                best = best.min(c);
            }
            assert!((got - best).abs() < 1e-9, "hungarian {got} vs brute force {best}");
        }
    }
}
