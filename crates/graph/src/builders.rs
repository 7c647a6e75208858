//! Topology builders: every graph family the paper evaluates, plus random
//! families for property tests and ablations.
//!
//! All builders return [`Result<Graph, GraphError>`] and reject impossible
//! sizes instead of clamping silently.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Graph, GraphError};

/// The path ("line") graph `P_n`: constant `Δ = 2`, diameter `n − 1`.
///
/// The line is the first row of the paper's Table 2.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n == 0`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges)
}

/// The cycle `C_n`: 2-regular, diameter `⌊n/2⌋`. Requires `n ≥ 3`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidSize(format!(
            "cycle needs n >= 3, got {n}"
        )));
    }
    let mut edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// The complete graph `K_n`: `Δ = n − 1`, diameter 1.
///
/// Uniform algebraic gossip on `K_n` is the setting of Deb et al.
///
/// Uses [`Graph::complete`], the implicit O(1)-memory representation —
/// the stopping-time sweeps instantiate `K_n` up to `n = 10⁵`, where a
/// materialized adjacency (~10¹⁰ entries) could not exist.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n == 0`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    Graph::complete(n)
}

/// The `rows × cols` grid: constant `Δ = 4`, diameter `rows + cols − 2`.
///
/// The grid is the second row of the paper's Table 2 (with `n = rows·cols`,
/// diameter `Θ(√n)` when square).
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if either dimension is 0 or
/// `rows · cols` overflows `usize`.
pub fn grid(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    let n = cells("grid", rows, cols, 1)?;
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The `rows × cols` torus (wrap-around grid): 4-regular. Requires both
/// dimensions `≥ 3` so no parallel edges arise from the wrap.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if either dimension is `< 3` or
/// `rows · cols` overflows `usize`.
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    let n = cells("torus", rows, cols, 3)?;
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id(r, (c + 1) % cols)));
            edges.push((id(r, c), id((r + 1) % rows, c)));
        }
    }
    Graph::from_edges(n, &edges)
}

/// The node count `rows · cols` of a `family` with sides of at least `min`.
fn cells(family: &str, rows: usize, cols: usize, min: usize) -> Result<usize, GraphError> {
    let n = rows.checked_mul(cols).filter(|_| rows.min(cols) >= min);
    n.ok_or_else(|| {
        GraphError::InvalidSize(format!(
            "{family} needs sides >= {min} with a representable product, got {rows}x{cols}"
        ))
    })
}

/// The complete binary tree on `n` nodes (heap-indexed): `Δ ≤ 3`, diameter
/// `Θ(log n)`. Third row of the paper's Table 2.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n == 0`.
pub fn binary_tree(n: usize) -> Result<Graph, GraphError> {
    d_ary_tree(n, 2)
}

/// The complete `d`-ary tree on `n` nodes (heap-indexed).
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n == 0` or `d == 0`.
pub fn d_ary_tree(n: usize, d: usize) -> Result<Graph, GraphError> {
    if d == 0 {
        return Err(GraphError::InvalidSize("d-ary tree needs d >= 1".into()));
    }
    let mut edges = Vec::new();
    for v in 1..n {
        let parent = (v - 1) / d;
        edges.push((parent, v));
    }
    Graph::from_edges(n, &edges)
}

/// The star `K_{1,n−1}`: hub 0, diameter 2, `Δ = n − 1`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n == 0`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// The barbell graph: two cliques of `⌊n/2⌋` and `⌈n/2⌉` nodes joined by a
/// single bridge edge.
///
/// This is the paper's running worst case: uniform algebraic gossip needs
/// `Ω(n²)` rounds on it, while TAG finishes in `Θ(n)` — "a speedup ratio of
/// n". Requires `n ≥ 4` so both sides are genuine cliques.
///
/// Nodes `0..⌊n/2⌋` form the left clique, the rest the right clique; the
/// bridge is `(⌊n/2⌋ − 1, ⌊n/2⌋)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `n < 4`.
pub fn barbell(n: usize) -> Result<Graph, GraphError> {
    if n < 4 {
        return Err(GraphError::InvalidSize(format!(
            "barbell needs n >= 4, got {n}"
        )));
    }
    let half = n / 2;
    let mut edges = Vec::new();
    for u in 0..half {
        for v in (u + 1)..half {
            edges.push((u, v));
        }
    }
    for u in half..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    edges.push((half - 1, half));
    Graph::from_edges(n, &edges)
}

/// The lollipop graph: a clique of `clique` nodes with a path of `tail`
/// nodes attached. Another classic bottleneck family.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `clique < 2` or `tail == 0`.
pub fn lollipop(clique: usize, tail: usize) -> Result<Graph, GraphError> {
    if clique < 2 || tail == 0 {
        return Err(GraphError::InvalidSize(format!(
            "lollipop needs clique >= 2 and tail >= 1, got {clique}, {tail}"
        )));
    }
    let n = clique + tail;
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    // Path hanging off node clique-1.
    for i in 0..tail {
        let a = if i == 0 { clique - 1 } else { clique + i - 1 };
        edges.push((a, clique + i));
    }
    Graph::from_edges(n, &edges)
}

/// The hypercube on `2^dim` nodes: `Δ = dim = log₂ n`, diameter `dim`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for `dim == 0` or `dim > 20`.
pub fn hypercube(dim: u32) -> Result<Graph, GraphError> {
    if dim == 0 || dim > 20 {
        return Err(GraphError::InvalidSize(format!(
            "hypercube needs 1 <= dim <= 20, got {dim}"
        )));
    }
    let n = 1usize << dim;
    let mut edges = Vec::new();
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1 << b);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A connected Erdős–Rényi graph `G(n, p)`: edges sampled independently,
/// retried (up to 100 attempts) until connected.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n == 0`, `p` is not in `[0, 1]`,
/// or no connected sample was found (p too small for this n).
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidSize("G(n,p) needs n >= 1".into()));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidSize(format!(
            "edge probability must be in [0,1], got {p}"
        )));
    }
    for _ in 0..100 {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::InvalidSize(format!(
        "no connected G({n}, {p}) sample in 100 attempts"
    )))
}

/// A random `d`-regular graph via the pairing (configuration) model,
/// resampled until simple and connected. Random regular graphs are
/// expanders w.h.p. — the "good" end of the spectrum for uniform gossip.
///
/// An attempt shuffles the `n·d` stubs and pairs them in order, O(n·d);
/// a self-loop, a [`GraphError::DuplicateEdge`] from [`Graph::from_edges`]
/// or a no from [`Graph::is_connected`] rejects it for a fresh shuffle.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] if `n·d` is odd or overflows,
/// `d == 0`, `d >= n`, or no simple connected sample was found in 200
/// attempts.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let stub_count = n
        .checked_mul(d)
        .filter(|s| d > 0 && d < n && s.is_multiple_of(2));
    let stub_count = stub_count.ok_or_else(|| {
        GraphError::InvalidSize(format!(
            "random_regular needs n*d even and representable and 0 < d < n, got n={n}, d={d}"
        ))
    })?;
    for _ in 0..200 {
        let mut stubs: Vec<_> = (0..stub_count).map(|i| i / d).collect();
        stubs.shuffle(rng);
        let edges: Vec<_> = stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        if edges.iter().any(|&(u, v)| u == v) {
            continue; // self-loop: resample
        }
        match Graph::from_edges(n, &edges) {
            Ok(g) if g.is_connected() => return Ok(g),
            // Disconnected, or a parallel edge: resample.
            Ok(_) | Err(GraphError::DuplicateEdge(..)) => {}
            Err(e) => return Err(e),
        }
    }
    Err(GraphError::InvalidSize(format!(
        "no simple connected {d}-regular graph on {n} nodes in 200 attempts"
    )))
}

/// The "dumbbell" variant: two cliques joined by a path of `bridge_len`
/// edges (barbell generalization; `bridge_len = 1` is the barbell).
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] for cliques `< 2` or `bridge_len == 0`.
pub fn dumbbell(clique: usize, bridge_len: usize) -> Result<Graph, GraphError> {
    if clique < 2 || bridge_len == 0 {
        return Err(GraphError::InvalidSize(format!(
            "dumbbell needs clique >= 2 and bridge_len >= 1, got {clique}, {bridge_len}"
        )));
    }
    let n = 2 * clique + bridge_len - 1;
    let mut edges = Vec::new();
    // Left clique on 0..clique, right clique on the last `clique` nodes.
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    let right_start = clique + bridge_len - 1;
    for u in right_start..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    // Path from clique-1 through the middle nodes to right_start.
    let mut prev = clique - 1;
    for i in 0..bridge_len {
        let next = if i == bridge_len - 1 {
            right_start
        } else {
            clique + i
        };
        edges.push((prev, next));
        prev = next;
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.diameter(), 4);
        assert!(g.is_connected());
        assert!(path(1).unwrap().is_connected());
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6).unwrap();
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.diameter(), 3);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn complete_shape() {
        let g = complete(7).unwrap();
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.diameter(), 1);
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.n(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.diameter(), 5); // (3-1)+(4-1)
        assert_eq!(g.max_degree(), 4);
        assert!(grid(0, 3).is_err());
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5).unwrap();
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_connected());
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(15).unwrap(); // perfect tree of depth 3
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.diameter(), 6);
        assert!(g.is_connected());
    }

    #[test]
    fn star_shape() {
        let g = star(10).unwrap();
        assert_eq!(g.degree(0), 9);
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(10).unwrap();
        assert_eq!(g.n(), 10);
        // Two 5-cliques (10 edges each) + bridge.
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.diameter(), 3);
        assert!(g.has_edge(4, 5));
        assert!(g.is_connected());
        assert!(barbell(3).is_err());
        // Odd n: cliques of 3 and 4.
        let g7 = barbell(7).unwrap();
        assert_eq!(g7.num_edges(), 3 + 6 + 1);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(5, 3).unwrap();
        assert_eq!(g.n(), 8);
        assert_eq!(g.num_edges(), 10 + 3);
        assert_eq!(g.degree(7), 1); // tail end
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.n(), 16);
        assert_eq!(g.num_edges(), 32);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.diameter(), 4);
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn dumbbell_generalizes_barbell() {
        let g = dumbbell(4, 1).unwrap();
        let b = barbell(8).unwrap();
        assert_eq!(g.n(), b.n());
        assert_eq!(g.num_edges(), b.num_edges());
        let long = dumbbell(3, 5).unwrap();
        assert_eq!(long.n(), 3 + 3 + 4);
        assert!(long.is_connected());
        assert_eq!(long.diameter(), 2 + 5);
    }

    #[test]
    fn erdos_renyi_connected_sample() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_connected(30, 0.3, &mut rng).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.n(), 30);
        // p = 0 on n > 1 can never connect.
        assert!(erdos_renyi_connected(5, 0.0, &mut rng).is_err());
    }

    #[test]
    fn random_regular_sample() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_regular(20, 4, &mut rng).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        // Odd n*d impossible.
        assert!(random_regular(5, 3, &mut rng).is_err());
        assert!(random_regular(4, 4, &mut rng).is_err());
    }

    /// A size whose node or stub count overflows `usize` is a typed error,
    /// returned before anything is allocated or looped over.
    #[test]
    fn oversized_inputs_are_typed_errors() {
        let invalid = |r: Result<Graph, GraphError>| matches!(r, Err(GraphError::InvalidSize(_)));
        assert!(invalid(grid(1 << 33, 1 << 33)));
        assert!(invalid(torus(1 << 33, 1 << 33)));
        let mut rng = StdRng::seed_from_u64(3);
        assert!(invalid(random_regular(usize::MAX / 2, 4, &mut rng)));
        assert!(invalid(Graph::from_edges(usize::MAX, &[])));
        assert!(invalid(complete(1 << 33)));
    }
}
