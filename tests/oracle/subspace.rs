//! The exact stopping-time law of asynchronous uniform algebraic gossip on
//! a few nodes, as a finite Markov chain over subspaces.
//!
//! A node's state is the span of the coefficient vectors it holds, one
//! subspace of F_q^k. Dense emit draws every recoding coefficient from all
//! of F_q, zero included, so a message from a node spanning S is a vector
//! w uniform over S, and receiving it moves the receiver from R to
//! R + ⟨w⟩. Which vectors were stored, and in what order, never matters:
//! the tuple of spans is the whole state.
//!
//! Nothing here comes from the workspace. Vectors are integers in base q,
//! arithmetic is XOR for q = 2 and `% p` for a prime p, and a subspace is
//! keyed by its reduced row echelon basis.

use std::collections::BTreeMap;

/// The contact direction(s) of one timeslot, as the chain sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contact {
    /// The waking node v sends to its partner u.
    Push,
    /// The partner u sends to v.
    Pull,
    /// Both, each message drawn from the sender's span before the contact.
    Exchange,
}

/// A vector of F_q^k, one coordinate per entry.
type Vector = Vec<u64>;

/// One subspace: its canonical basis and every vector it contains.
#[derive(Debug)]
struct Space {
    dim: usize,
    /// Members, each as its base-q index (coordinate i is digit i).
    members: Vec<usize>,
}

/// Every subspace of F_q^k, with the join table `R + ⟨w⟩` for each
/// vector w and the one-message transition law between any two.
#[derive(Debug)]
pub struct Subspaces {
    q: u64,
    k: usize,
    spaces: Vec<Space>,
    /// `join[r][w]`: the subspace `r + ⟨w⟩`, for w a base-q index.
    join: Vec<Vec<usize>>,
    /// `step[r][s]`: the law of `r + ⟨w⟩`, w uniform over `s`, as
    /// (subspace, probability) pairs.
    step: Vec<Vec<Vec<(usize, f64)>>>,
}

impl Subspaces {
    /// Enumerates the subspaces of F_q^k, q prime.
    pub fn new(q: u64, k: usize) -> Self {
        assert!(
            (2..=251).contains(&q) && (2..q).all(|d| !q.is_multiple_of(d)),
            "q must be a small prime"
        );
        let mut all = Subspaces {
            q,
            k,
            spaces: Vec::new(),
            join: Vec::new(),
            step: Vec::new(),
        };
        let vectors = q.pow(k as u32) as usize;
        let mut ids: BTreeMap<Vec<Vector>, usize> = BTreeMap::new();
        let mut bases: Vec<Vec<Vector>> = Vec::new();
        ids.insert(Vec::new(), 0);
        bases.push(Vec::new());
        let mut next = 0;
        while next < bases.len() {
            let basis = bases[next].clone();
            let row: Vec<usize> = (0..vectors)
                .map(|w| {
                    let mut rows = basis.clone();
                    rows.push(all.vector(w));
                    let key = all.rref(rows);
                    *ids.entry(key.clone()).or_insert_with(|| {
                        bases.push(key);
                        bases.len() - 1
                    })
                })
                .collect();
            all.join.push(row);
            next += 1;
        }
        all.spaces = bases.iter().map(|b| all.space(b)).collect();
        all.step = (0..all.len())
            .map(|r| {
                (0..all.len())
                    .map(|s| {
                        let members = &all.spaces[s].members;
                        let mut law: BTreeMap<usize, usize> = BTreeMap::new();
                        for &w in members {
                            *law.entry(all.join[r][w]).or_default() += 1;
                        }
                        let total = members.len() as f64;
                        law.into_iter()
                            .map(|(t, c)| (t, c as f64 / total))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        all
    }

    /// How many subspaces F_q^k has.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// The subspace `{0}`.
    pub fn zero(&self) -> usize {
        0
    }

    /// The whole space F_q^k.
    pub fn full(&self) -> usize {
        self.spaces
            .iter()
            .position(|s| s.dim == self.k)
            .expect("F_q^k is a subspace of itself")
    }

    /// The span of the unit vectors `e_i` for `i` in `units`.
    pub fn span_of_units(&self, units: &[usize]) -> usize {
        let q = self.q as usize;
        units
            .iter()
            .fold(self.zero(), |r, &i| self.join[r][q.pow(i as u32)])
    }

    /// Asserts the helpfulness lemma exactly, for every pair: when S ⊄ R, a
    /// vector uniform over S leaves R with probability at least 1 − 1/q.
    /// Returns how many pairs had S ⊄ R.
    pub fn assert_helpfulness_lemma(&self) -> usize {
        let mut checked = 0;
        for (r, joins) in self.join.iter().enumerate() {
            for s in &self.spaces {
                let moved = s.members.iter().filter(|&&w| joins[w] != r).count() as u64;
                if moved == 0 {
                    continue; // S ⊆ R
                }
                checked += 1;
                let size = s.members.len() as u64;
                assert!(
                    moved * self.q >= size * (self.q - 1),
                    "P(helpful) = {moved}/{size} < 1 - 1/{}",
                    self.q
                );
            }
        }
        checked
    }

    /// Coordinates of the vector with base-q index `w`.
    fn vector(&self, mut w: usize) -> Vector {
        let q = self.q as usize;
        (0..self.k)
            .map(|_| {
                let digit = w % q;
                w /= q;
                digit as u64
            })
            .collect()
    }

    fn index(&self, v: &[u64]) -> usize {
        v.iter()
            .rev()
            .fold(0, |acc, &x| acc * self.q as usize + x as usize)
    }

    fn add(&self, a: u64, b: u64) -> u64 {
        if self.q == 2 {
            a ^ b
        } else {
            (a + b) % self.q
        }
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        a * b % self.q
    }

    fn inv(&self, a: u64) -> u64 {
        (1..self.q)
            .find(|&b| self.mul(a, b) == 1)
            .expect("a nonzero residue of a prime is invertible")
    }

    /// The reduced row echelon basis of the span of `rows`: the key that
    /// makes equal subspaces equal.
    fn rref(&self, mut rows: Vec<Vector>) -> Vec<Vector> {
        let mut rank = 0;
        for col in 0..self.k {
            let Some(p) = (rank..rows.len()).find(|&i| rows[i][col] != 0) else {
                continue;
            };
            rows.swap(rank, p);
            let scale = self.inv(rows[rank][col]);
            rows[rank] = rows[rank].iter().map(|&x| self.mul(x, scale)).collect();
            for i in 0..rows.len() {
                let f = rows[i][col];
                if i != rank && f != 0 {
                    let minus_f = self.q - f;
                    rows[i] = (0..self.k)
                        .map(|j| self.add(rows[i][j], self.mul(minus_f, rows[rank][j])))
                        .collect();
                }
            }
            rank += 1;
        }
        rows.truncate(rank);
        rows
    }

    /// Every combination of `basis` with coefficients from all of F_q.
    fn space(&self, basis: &[Vector]) -> Space {
        let mut members = vec![vec![0; self.k]];
        for b in basis {
            members = members
                .iter()
                .flat_map(|m| {
                    (0..self.q).map(move |c| {
                        (0..self.k)
                            .map(|j| self.add(m[j], self.mul(c, b[j])))
                            .collect::<Vector>()
                    })
                })
                .collect();
        }
        let mut members: Vec<usize> = members.iter().map(|m| self.index(m)).collect();
        members.sort_unstable();
        Space {
            dim: basis.len(),
            members,
        }
    }
}

/// The exact law of the stopping time T, in timeslots.
#[derive(Debug)]
pub struct StoppingLaw {
    /// E[T].
    pub mean: f64,
    /// `cdf[t]` = P(T ≤ t), until less than 1e-12 of the mass remains.
    pub cdf: Vec<f64>,
    /// Reachable states, the terminal one included.
    pub states: usize,
}

impl StoppingLaw {
    /// P(T ≤ t).
    pub fn at(&self, t: u64) -> f64 {
        usize::try_from(t)
            .ok()
            .and_then(|t| self.cdf.get(t))
            .copied()
            .unwrap_or(1.0)
    }
}

/// One reachable state's moves: the self-loop, and the rest.
struct Moves {
    stay: f64,
    to: Vec<(usize, f64)>,
}

/// Solves the chain: each timeslot a node v uniform on the n nodes wakes
/// and contacts a u uniform among `adjacency[v]`; `contact` says who sends.
/// `start[v]` is node v's initial subspace; T is the first timeslot at
/// which every node spans F_q^k.
pub fn stopping_law(
    spaces: &Subspaces,
    adjacency: &[Vec<usize>],
    contact: Contact,
    start: &[usize],
) -> StoppingLaw {
    let n = adjacency.len();
    assert_eq!(start.len(), n);
    let full = spaces.full();
    let terminal = vec![full; n];

    // Reachable states, each with its moves.
    let mut index: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
    let mut states: Vec<Vec<usize>> = vec![start.to_vec()];
    index.insert(start.to_vec(), 0);
    let mut moves: Vec<Moves> = Vec::new();
    while moves.len() < states.len() {
        let s = states[moves.len()].clone();
        let mut law: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
        for (v, neighbours) in adjacency.iter().enumerate() {
            let pick = 1.0 / (n * neighbours.len()) as f64;
            for &u in neighbours {
                let to_u = &spaces.step[s[u]][s[v]];
                let to_v = &spaces.step[s[v]][s[u]];
                let mut add = |ru: usize, rv: usize, p: f64| {
                    let mut next = s.clone();
                    next[u] = ru;
                    next[v] = rv;
                    *law.entry(next).or_default() += pick * p;
                };
                match contact {
                    Contact::Push => to_u.iter().for_each(|&(ru, p)| add(ru, s[v], p)),
                    Contact::Pull => to_v.iter().for_each(|&(rv, p)| add(s[u], rv, p)),
                    Contact::Exchange => {
                        for &(ru, pu) in to_u {
                            for &(rv, pv) in to_v {
                                add(ru, rv, pu * pv);
                            }
                        }
                    }
                }
            }
        }
        let mut m = Moves {
            stay: 0.0,
            to: Vec::new(),
        };
        for (next, p) in law {
            if next == s {
                m.stay += p;
                continue;
            }
            let id = *index.entry(next.clone()).or_insert_with(|| {
                states.push(next);
                states.len() - 1
            });
            m.to.push((id, p));
        }
        moves.push(m);
    }

    // E[T]: spans only grow, so every move other than the self-loop raises
    // the total dimension; solve from the top down.
    let total_dim = |s: &[usize]| s.iter().map(|&r| spaces.spaces[r].dim).sum::<usize>();
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(total_dim(&states[i])));
    let mut expect = vec![0.0; states.len()];
    for &i in &order {
        if states[i] == terminal {
            continue;
        }
        let m = &moves[i];
        assert!(m.stay < 1.0, "state {:?} never moves", states[i]);
        let onward: f64 = m.to.iter().map(|&(j, p)| p * expect[j]).sum();
        expect[i] = (1.0 + onward) / (1.0 - m.stay);
    }

    // P(T ≤ t), forward from the start.
    let done = index.get(&terminal).copied();
    let mut mass = vec![0.0; states.len()];
    mass[0] = 1.0;
    let mut cdf = Vec::new();
    loop {
        let finished = done.map_or(0.0, |d| mass[d]);
        cdf.push(finished);
        if 1.0 - finished < 1e-12 {
            break;
        }
        let mut next = vec![0.0; states.len()];
        for (i, m) in moves.iter().enumerate() {
            let here = mass[i];
            if here == 0.0 {
                continue;
            }
            if Some(i) == done {
                next[i] += here;
                continue;
            }
            next[i] += here * m.stay;
            for &(j, p) in &m.to {
                next[j] += here * p;
            }
        }
        mass = next;
    }
    StoppingLaw {
        mean: expect[0],
        cdf,
        states: states.len(),
    }
}
