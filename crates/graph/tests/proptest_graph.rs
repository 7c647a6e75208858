//! Property-based tests over random graph families, a differential test of
//! `Graph::from_edges` against a per-node-list reference, and pinned
//! builder outputs.

use ag_graph::{builders, metrics, Graph, GraphError, NodeId};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 2 of the paper: for any connected graph, the degree sum along
    /// any shortest path is at most 3n.
    #[test]
    fn lemma2_degree_sum_at_most_3n(seed in any::<u64>(), n in 5usize..30, p in 0.15f64..0.6) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(g) = builders::erdos_renyi_connected(n, p, &mut rng) {
            prop_assert!(metrics::max_shortest_path_degree_sum(&g) <= 3 * g.n());
        }
    }

    /// BFS depth from any root is at most the diameter; distances satisfy
    /// the triangle property along tree edges.
    #[test]
    fn bfs_depth_le_diameter(seed in any::<u64>(), n in 4usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(g) = builders::erdos_renyi_connected(n, 0.3, &mut rng) {
            let d = g.diameter();
            for v in 0..g.n() {
                let bfs = g.bfs_tree(v);
                prop_assert!(bfs.depth() <= d);
                for u in 0..g.n() {
                    if let Some(p) = bfs.parent(u) {
                        prop_assert_eq!(bfs.dist(u).unwrap(), bfs.dist(p).unwrap() + 1);
                        prop_assert!(g.has_edge(u, p));
                    }
                }
            }
        }
    }

    /// Any BFS tree of a connected graph is a valid spanning tree of it,
    /// with depth <= tree diameter <= 2 * depth.
    #[test]
    fn bfs_spanning_tree_valid(seed in any::<u64>(), n in 2usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(g) = builders::erdos_renyi_connected(n, 0.35, &mut rng) {
            let tree = g.bfs_tree(0).into_spanning_tree();
            prop_assert!(tree.is_spanning_tree_of(&g));
            let depth = tree.depth();
            let diam = tree.tree_diameter();
            prop_assert!(depth <= diam || depth == 0);
            prop_assert!(diam <= 2 * depth.max(1));
        }
    }

    /// Random regular graphs are d-regular, simple and connected.
    #[test]
    fn random_regular_invariants(seed in any::<u64>(), half_n in 4usize..12, d in 2usize..5) {
        let n = 2 * half_n; // even so n*d is always even
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(g) = builders::random_regular(n, d, &mut rng) {
            prop_assert_eq!(g.min_degree(), d);
            prop_assert_eq!(g.max_degree(), d);
            prop_assert!(g.is_connected());
            prop_assert_eq!(g.num_edges(), n * d / 2);
        }
    }

    /// Handshake lemma: sum of degrees = 2|E|, for arbitrary edge sets.
    #[test]
    fn handshake_lemma(n in 2usize..20, edge_bits in any::<u64>()) {
        let mut edges = Vec::new();
        let mut bit = 0;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if edge_bits & (1 << (bit % 64)) != 0 {
                    edges.push((u, v));
                }
                bit += 1;
                if bit > 200 { break 'outer; }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let degree_sum: usize = (0..n).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// Grid diameter is exactly (rows-1)+(cols-1).
    #[test]
    fn grid_diameter_formula(rows in 1usize..7, cols in 1usize..7) {
        let g = builders::grid(rows, cols).unwrap();
        prop_assert_eq!(g.diameter() as usize, rows + cols - 2);
    }

    /// Claim 1 of the paper: constant-max-degree graphs have diameter
    /// Omega(log n); check the explicit form D + 2 >= log_Delta(n).
    #[test]
    fn claim1_diameter_lower_bound(n in 4usize..64) {
        for g in [builders::path(n).unwrap(), builders::binary_tree(n).unwrap()] {
            let delta = g.max_degree() as f64;
            let d = g.diameter() as f64;
            if delta > 1.0 {
                prop_assert!(d + 2.0 >= (n as f64).ln() / delta.ln() - 1e-9,
                    "Claim 1 violated: D={d}, Delta={delta}, n={n}");
            }
        }
    }

    /// `from_edges` returns exactly what the per-node-list reference
    /// returns: the same graph on success, the same first error on failure.
    #[test]
    fn from_edges_matches_the_list_reference(n in 2usize..12, wild in 0usize..4, raw in vec(any::<u16>(), 0..30)) {
        let edges = edge_list(&raw, n, wild);
        let got = Graph::from_edges(n, &edges);
        match reference_lists(n, &edges) {
            Ok(adj) => {
                let g = got.expect("reference accepted the list");
                prop_assert_eq!(g.num_edges(), edges.len());
                for (v, list) in adj.iter().enumerate() {
                    prop_assert_eq!(&g.neighbors(v).collect::<Vec<_>>(), list);
                }
            }
            Err(want) => prop_assert_eq!(got.err(), Some(want)),
        }
    }

    /// The connectivity walk agrees with a full BFS, on connected and
    /// disconnected graphs alike.
    #[test]
    fn is_connected_matches_bfs_reach(n in 1usize..30, p in 0.0f64..0.4, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<_> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let g = Graph::from_edges(n, &edges).expect("simple edge list");
        prop_assert_eq!(g.is_connected(), g.bfs_tree(0).reached() == n);
        let k = Graph::complete(n).expect("n >= 1");
        prop_assert!(k.is_connected() && k.bfs_tree(0).reached() == n);
    }
}

/// The edge-list semantics `Graph::from_edges` promises, written the naive
/// way: validate each edge in order, push both directions onto per-node
/// lists, then sort each list and report its first repeated neighbor.
fn reference_lists(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Vec<Vec<NodeId>>, GraphError> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        for node in [u, v] {
            if node >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        adj[u].push(v);
        adj[v].push(u);
    }
    for (u, list) in adj.iter_mut().enumerate() {
        list.sort_unstable();
        if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge(u, w[0]));
        }
    }
    Ok(adj)
}

/// Pairs consecutive raw draws into edges on `n >= 2` nodes. `wild == 0`
/// lets endpoints reach `n` (out of range), `wild == 1` allows self-loops,
/// and any other value keeps both endpoints distinct and in range, so that
/// only a duplicate can be wrong.
fn edge_list(raw: &[u16], n: usize, wild: usize) -> Vec<(NodeId, NodeId)> {
    raw.chunks_exact(2)
        .map(|p| {
            let (a, b) = (usize::from(p[0]), usize::from(p[1]));
            match wild {
                0 => (a % (n + 1), b % (n + 1)),
                1 => (a % n, b % n),
                _ => (a % n, (a % n + 1 + b % (n - 1)) % n),
            }
        })
        .collect()
}

/// FNV-1a over a graph's CSR arrays: the degree prefix sums, then the
/// neighbor lists in node order, each entry as a little-endian `u64`.
fn csr_hash(g: &Graph) -> u64 {
    let ends = g.nodes().scan(0, |end, v| {
        *end += g.degree(v);
        Some(*end)
    });
    let targets = g.nodes().flat_map(|v| g.neighbors(v));
    let words = std::iter::once(0).chain(ends).chain(targets);
    words.fold(0xCBF2_9CE4_8422_2325, |h, x| {
        (x as u64).to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    })
}

/// Every builder output pinned to its CSR hash: a change to how graphs are
/// built must not change which graph comes out, random samples included.
#[test]
fn builder_outputs_are_pinned() {
    let rng = StdRng::seed_from_u64;
    let cases = [
        (
            "random_regular(1000, 3)",
            builders::random_regular(1000, 3, &mut rng(7)),
            0x66E5_9E2B_7B06_FE0C,
        ),
        (
            "random_regular(100000, 3)",
            builders::random_regular(100_000, 3, &mut rng(0x51AB)),
            0x4458_74D9_1ADA_AAB1,
        ),
        (
            "erdos_renyi_connected(60, 0.1)",
            builders::erdos_renyi_connected(60, 0.1, &mut rng(3)),
            0x4365_42A6_C0C0_72D1,
        ),
        ("barbell(40)", builders::barbell(40), 0xB332_AF31_DE95_0594),
        ("grid(7, 9)", builders::grid(7, 9), 0x8426_2A7F_60BF_B5ED),
        ("torus(5, 8)", builders::torus(5, 8), 0x2A55_F5C7_EE0D_6DA5),
    ];
    for (name, g, want) in cases {
        let got = csr_hash(&g.expect("builds"));
        assert_eq!(got, want, "{name}");
    }
}
