//! Property-based tests for the incremental echelon basis, checked against
//! the dense-matrix oracle in `tests/oracle` (whole-matrix Gauss–Jordan
//! elimination, no structure shared with the store under test).

use ag_gf::{Field, Gf2, Gf256, SlabField, F13, F257, F7};
use ag_linalg::{BasisArena, EchelonBasis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle;

use oracle::Matrix;

fn gf256_vec(len: usize) -> impl Strategy<Value = Vec<Gf256>> {
    proptest::collection::vec(any::<u8>().prop_map(Gf256::new), len)
}

fn gf256_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<Gf256>> {
    proptest::collection::vec(gf256_vec(cols), rows).prop_map(|rows| Matrix::from_rows(&rows))
}

fn f257_rows(rows: &[&[u64]]) -> Vec<Vec<F257>> {
    rows.iter()
        .map(|r| r.iter().map(|&v| F257::from_u64(v)).collect())
        .collect()
}

/// The oracle itself, on examples small enough to check by hand.
#[test]
fn oracle_known_examples() {
    // [1 2; 3 4] over F257 has rank 2 and reduces to the identity.
    let mut m = Matrix::from_rows(&f257_rows(&[&[1, 2], &[3, 4]]));
    assert_eq!(m.rref(), 2);
    assert_eq!(m, Matrix::from_rows(&f257_rows(&[&[1, 0], &[0, 1]])));
    // x + 2y = 5, 3x + 4y = 11 ⇒ (x, y) = (1, 2).
    let m = Matrix::from_rows(&f257_rows(&[&[1, 2], &[3, 4]]));
    let b = [F257::from_u64(5), F257::from_u64(11)];
    assert_eq!(m.solve(&b), Some(f257_rows(&[&[1, 2]]).remove(0)));
    // Second row is 2× the first: rank 1, nothing to solve.
    let singular = Matrix::from_rows(&f257_rows(&[&[1, 2], &[2, 4]]));
    assert_eq!(singular.rank(), 1);
    assert_eq!(singular.solve(&b), None);
}

/// ROADMAP 2(c): an arena node fed random augmented rows (random
/// coefficients *and* random payloads, so dependent rows are generally
/// inconsistent) agrees with the oracle on the rank of what it was fed and,
/// once full, on the solution of the rows it kept.
fn arena_matches_oracle<F: SlabField>(
    seed: u64,
    k: usize,
    r: usize,
    extra: usize,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arena = BasisArena::<F>::try_new(1, k, k + r).unwrap();
    let mut fed: Vec<Vec<F>> = Vec::new();
    let mut kept: Vec<Vec<F>> = Vec::new();
    for _ in 0..k + extra {
        let row: Vec<F> = (0..k + r).map(|_| F::random(&mut rng)).collect();
        if arena
            .insert_packed_mut(0, &mut F::pack(&row))
            .is_innovative()
        {
            kept.push(row.clone());
        }
        fed.push(row[..k].to_vec());
        prop_assert_eq!(arena.rank(0), Matrix::from_rows(&fed).rank());
    }
    let Some(solution) = arena.solution(0) else {
        prop_assert!(arena.rank(0) < k, "a full node must have a solution");
        return Ok(());
    };
    solution_matches_oracle(&solution, &kept, k)
}

/// `kept` are the k independent equations A·X = B a full node stored, as
/// fed; column j of `solution` (X) must be the oracle's solve against
/// column j of B.
fn solution_matches_oracle<F: SlabField>(
    solution: &[Vec<F>],
    kept: &[Vec<F>],
    k: usize,
) -> Result<(), TestCaseError> {
    let coeffs: Vec<Vec<F>> = kept.iter().map(|row| row[..k].to_vec()).collect();
    let a = Matrix::from_rows(&coeffs);
    for j in 0..kept[0].len() - k {
        let b: Vec<F> = kept.iter().map(|row| row[k + j]).collect();
        let x = a.solve(&b).expect("kept rows are independent");
        let got: Vec<F> = solution.iter().map(|message| message[j]).collect();
        prop_assert_eq!(got, x, "payload column {}", j);
    }
    Ok(())
}

/// The one store through its three entry points: an arena fed through
/// `&mut self`, a second arena fed through the contiguous sharding `cuts`
/// describes (any cut points, empty shards included) and one
/// `EchelonBasis` (a one-node arena) per node, under one random stream of rows over `nodes`
/// nodes. They must agree on every verdict and rank as the stream runs and
/// on coefficient rows, materialized rows and solutions at its end; the
/// dense oracle says what the ranks and the solutions are.
fn arena_shards_and_twins_agree<F: SlabField>(
    seed: u64,
    nodes: usize,
    k: usize,
    r: usize,
    cuts: &[usize],
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (nodes + 1)).collect();
    cuts.extend([0, nodes]);
    cuts.sort_unstable();
    let bounds: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();

    let mut arena = BasisArena::<F>::try_new(nodes, k, k + r).unwrap();
    let mut sharded = BasisArena::<F>::try_new(nodes, k, k + r).unwrap();
    let mut twins: Vec<EchelonBasis<F>> = (0..nodes).map(|_| EchelonBasis::new(k)).collect();
    let mut fed: Vec<Vec<Vec<F>>> = vec![Vec::new(); nodes];
    let mut kept: Vec<Vec<Vec<F>>> = vec![Vec::new(); nodes];
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    {
        let mut shards = sharded.shards_mut(&bounds);
        for _ in 0..nodes * (k + 3) {
            let node = rng.gen_range(0..nodes);
            let row: Vec<F> = (0..k + r).map(|_| F::random(&mut rng)).collect();
            let packed = F::pack(&row);
            let verdict = arena.insert_packed_mut(node, &mut packed.clone());
            let shard = shards
                .iter_mut()
                .find(|s| s.node_range().contains(&node))
                .expect("bounds cover every node");
            prop_assert_eq!(shard.insert_packed_mut(node, &mut packed.clone()), verdict);
            prop_assert_eq!(twins[node].try_insert_packed_slice(&packed), Ok(verdict));
            fed[node].push(row[..k].to_vec());
            if verdict.is_innovative() {
                kept[node].push(row);
            }
            let rank = Matrix::from_rows(&fed[node]).rank();
            prop_assert_eq!(arena.rank(node), rank);
            prop_assert_eq!(shard.rank(node), rank);
            prop_assert_eq!(twins[node].rank(), rank);
        }
        // Materialized rows, read through the shards while they live.
        for shard in &mut shards {
            for node in shard.node_range() {
                for i in 0..shard.rank(node) {
                    shard.copy_packed_row_into(node, i, &mut a);
                    arena.copy_packed_row_into(node, i, &mut b);
                    twins[node].copy_packed_row_into(i, &mut c);
                    prop_assert!(a == b && b == c, "row {} of node {}", i, node);
                }
            }
        }
    }
    for (node, twin) in twins.iter().enumerate() {
        let rows: Vec<&[u8]> = arena.coeff_rows(node).collect();
        prop_assert_eq!(&rows, &sharded.coeff_rows(node).collect::<Vec<_>>());
        prop_assert_eq!(&rows, &twin.coeff_rows().collect::<Vec<_>>());
        let solution = arena.solution(node);
        prop_assert_eq!(&solution, &sharded.solution(node));
        prop_assert_eq!(&solution, &twin.solution());
        prop_assert_eq!(solution.is_some(), kept[node].len() == k);
        if let Some(solution) = solution {
            solution_matches_oracle(&solution, &kept[node], k)?;
        }
    }
    Ok(())
}

/// A random combination of `rows` (whole augmented rows), or a uniformly
/// random row when there are none.
fn combination<F: SlabField>(rows: &[Vec<F>], elems: usize, rng: &mut StdRng) -> Vec<F> {
    if rows.is_empty() {
        return (0..elems).map(|_| F::random(rng)).collect();
    }
    let mut out = vec![F::ZERO; elems];
    for row in rows {
        let c = F::random(rng);
        for (o, &x) in out.iter_mut().zip(row) {
            *o += c * x;
        }
    }
    out
}

/// Do the coefficient rows `a` and `b` span one subspace? The oracle's
/// test: rank A = rank B = rank [A; B].
fn oracle_same_span<F: SlabField>(a: &[Vec<F>], b: &[Vec<F>]) -> bool {
    let rank = |rows: &[Vec<F>]| Matrix::from_rows(rows).rank();
    let both: Vec<Vec<F>> = a.iter().chain(b).cloned().collect();
    let r = rank(a);
    r == rank(b) && r == rank(&both)
}

/// Inserts `row` into `node`, through the arena or through the shard of
/// `bounds` that holds it, and records it as fed.
fn feed<F: SlabField>(
    arena: &mut BasisArena<F>,
    fed: &mut [Vec<Vec<F>>],
    node: usize,
    row: Vec<F>,
    through: Option<&[(usize, usize)]>,
) {
    let mut packed = F::pack(&row);
    if let Some(bounds) = through {
        let mut shards = arena.shards_mut(bounds);
        let shard = shards
            .iter_mut()
            .find(|s| s.node_range().contains(&node))
            .expect("bounds cover every node");
        shard.insert_packed_mut(node, &mut packed);
    } else {
        arena.insert_packed_mut(node, &mut packed);
    }
    fed[node].push(row);
}

/// `BasisArena::same_span` is exact. Node 0 takes random rows and nodes 1
/// and 2 random combinations of what node 0 was fed, in their own order,
/// so pairs often share a span; then every step inserts into one node a
/// combination of another's rows or a random row, through the arena or
/// through a shard of the split `cut` describes, and ordered pairs (a node
/// with itself included) are asked again in a random order, so that
/// classes are adopted in both directions. Each answer must be the
/// oracle's: equal nonzero ranks and one span. After each `true` both nodes
/// must hold the smaller of the two classes they held before the call, and
/// every later answer, read from those classes, must stay exact.
fn same_span_matches_oracle<F: SlabField>(
    seed: u64,
    k: usize,
    r: usize,
    cut: usize,
    steps: usize,
) -> Result<(), TestCaseError> {
    const NODES: usize = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let elems = k + r;
    let mut arena = BasisArena::<F>::try_new(NODES, k, elems).unwrap();
    let cut = cut % (NODES + 1);
    let bounds = [(0, cut), (cut, NODES)];
    let mut fed: Vec<Vec<Vec<F>>> = vec![Vec::new(); NODES];
    for _ in 0..rng.gen_range(1..=k + 1) {
        let row = combination::<F>(&[], elems, &mut rng);
        feed(&mut arena, &mut fed, 0, row, None);
    }
    let source = fed[0].clone();
    for node in 1..NODES {
        for _ in 0..rng.gen_range(0..=k + 1) {
            let row = combination(&source, elems, &mut rng);
            feed(&mut arena, &mut fed, node, row, None);
        }
    }
    for step in 0..=steps {
        if step > 0 {
            let (node, other) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
            let row = if rng.gen_bool(0.7) {
                combination(&fed[other], elems, &mut rng)
            } else {
                combination::<F>(&[], elems, &mut rng)
            };
            let through = rng.gen_bool(0.5).then_some(&bounds[..]);
            feed(&mut arena, &mut fed, node, row, through);
        }
        let coeffs: Vec<Vec<Vec<F>>> = fed
            .iter()
            .map(|rows| rows.iter().map(|row| row[..k].to_vec()).collect())
            .collect();
        for _ in 0..NODES * NODES {
            let (a, b) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
            let want = arena.rank(a) > 0 && oracle_same_span(&coeffs[a], &coeffs[b]);
            let before = arena.span_class(a).min(arena.span_class(b));
            prop_assert_eq!(
                arena.same_span(a, b),
                want,
                "step {}, nodes {} {}",
                step,
                a,
                b
            );
            if want {
                prop_assert_eq!(
                    (arena.span_class(a), arena.span_class(b)),
                    (before, before),
                    "step {}, nodes {} {}: not the smaller class",
                    step,
                    a,
                    b
                );
            }
        }
    }
    Ok(())
}

/// The layout's footprint, so that it cannot silently fatten again: a
/// rank-only GF(2⁸) arena at k = 8 (the `gossip-rank` shape) is an 80-byte
/// head (eight 2-byte pivot-map entries, eight 8-byte rows), a 4-byte rank
/// and a 4-byte span class per node, at full rank as at construction.
#[test]
fn rank_only_gf256_k8_arena_stays_within_88_bytes_a_node() {
    let n = 1000;
    let mut arena = BasisArena::<Gf256>::try_new(n, 8, 8).unwrap();
    let at_construction = arena.allocated_bytes();
    let mut rng = StdRng::seed_from_u64(8);
    for node in 0..n {
        while !arena.is_full(node) {
            let row: Vec<Gf256> = (0..8).map(|_| Gf256::random(&mut rng)).collect();
            arena.insert_packed_mut(node, &mut Gf256::pack(&row));
        }
    }
    assert_eq!(arena.allocated_bytes(), at_construction);
    assert!(
        at_construction <= 88 * n,
        "{} bytes a node",
        at_construction / n
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rref_is_idempotent_on_rank(m in gf256_matrix(4, 6)) {
        let mut a = m.clone();
        let rank1 = a.rref();
        let mut b = a.clone();
        let rank2 = b.rref();
        prop_assert_eq!(rank1, rank2);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rank_bounded_by_min_dim(m in gf256_matrix(5, 3)) {
        prop_assert!(m.rank() <= 3);
    }

    #[test]
    fn echelon_rank_matches_matrix_rank(rows in proptest::collection::vec(gf256_vec(5), 1..10)) {
        let m = Matrix::from_rows(&rows);
        let mut basis = EchelonBasis::<Gf256>::new(5);
        for r in rows {
            basis.try_insert(r).unwrap();
        }
        prop_assert_eq!(basis.rank(), m.rank());
    }

    #[test]
    fn echelon_insert_innovative_iff_rank_grows(rows in proptest::collection::vec(gf256_vec(4), 1..12)) {
        let mut basis = EchelonBasis::<Gf256>::new(4);
        for r in rows {
            let before = basis.rank();
            let innovative = basis.try_insert(r).unwrap().is_innovative();
            let after = basis.rank();
            prop_assert_eq!(innovative, after == before + 1);
        }
    }

    #[test]
    fn gf2_echelon_rank_matches(rows in proptest::collection::vec(
        proptest::collection::vec(any::<bool>().prop_map(Gf2::from), 6), 1..15)) {
        let m = Matrix::from_rows(&rows);
        let mut basis = EchelonBasis::<Gf2>::new(6);
        for r in rows {
            basis.try_insert(r).unwrap();
        }
        prop_assert_eq!(basis.rank(), m.rank());
    }

    #[test]
    fn arena_rank_and_solution_match_the_oracle(
        seed in any::<u64>(),
        k in 1usize..9,
        r in 0usize..5,
        extra in 0usize..6,
    ) {
        arena_matches_oracle::<Gf2>(seed, k, r, extra)?;
        arena_matches_oracle::<F13>(seed, k, r, extra)?;
        arena_matches_oracle::<Gf256>(seed, k, r, extra)?;
    }

    #[test]
    fn arena_any_sharding_and_echelon_twins_agree(
        seed in any::<u64>(),
        nodes in 1usize..8,
        k in 1usize..7,
        r in 0usize..4,
        cuts in proptest::collection::vec(0usize..8, 0..4),
    ) {
        arena_shards_and_twins_agree::<Gf2>(seed, nodes, k, r, &cuts)?;
        arena_shards_and_twins_agree::<F13>(seed, nodes, k, r, &cuts)?;
        arena_shards_and_twins_agree::<Gf256>(seed, nodes, k, r, &cuts)?;
        arena_shards_and_twins_agree::<F7>(seed, nodes, k, r, &cuts)?;
    }

    /// `same_span` against the oracle, over GF(2), F₁₃ and GF(2⁸).
    #[test]
    fn same_span_is_exact(
        seed in any::<u64>(),
        k in 1usize..7,
        r in 0usize..3,
        cut in 0usize..4,
    ) {
        same_span_matches_oracle::<Gf2>(seed, k, r, cut, 12)?;
        same_span_matches_oracle::<F13>(seed, k, r, cut, 12)?;
        same_span_matches_oracle::<Gf256>(seed, k, r, cut, 12)?;
    }

    #[test]
    fn solution_reproduces_random_messages(
        seed_rows in proptest::collection::vec(gf256_vec(3), 3),
        payload in proptest::collection::vec(gf256_vec(2), 3),
    ) {
        // Treat `payload` as the 3 source messages; build augmented unit rows
        // and random combinations; decoding must return the messages.
        let mut basis = EchelonBasis::<Gf256>::new(3);
        for (i, p) in payload.iter().enumerate() {
            let mut row = vec![Gf256::ZERO; 3];
            row[i] = Gf256::ONE;
            row.extend(p.iter().copied());
            basis.try_insert(row).unwrap();
        }
        // Extra dependent rows from seed_rows-combinations must not corrupt.
        for coeffs in &seed_rows {
            let mut row = coeffs.clone();
            for j in 0..2 {
                let mut acc = Gf256::ZERO;
                for (i, p) in payload.iter().enumerate() {
                    acc += coeffs[i] * p[j];
                }
                row.push(acc);
            }
            basis.try_insert(row).unwrap();
        }
        prop_assert_eq!(basis.solution().unwrap(), payload);
    }
}
