//! Initial message placement: which node holds which of the k messages.

use ag_graph::{GraphError, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// Where the `k` initial messages live before dissemination starts.
///
/// The paper's k-dissemination allows arbitrary placement ("k initial
/// messages located at some nodes (a node can hold more than one initial
/// message)"); all-to-all is the special case `k = n`, one per node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Placement {
    /// Message `i` starts at node `i mod n`. With `k = n` this is exactly
    /// all-to-all communication.
    #[default]
    Spread,
    /// All messages start at one node (1-source k-dissemination).
    SingleSource(NodeId),
    /// Each message lands on an independently uniform node.
    Random,
    /// Explicit host per message (`hosts[i]` holds message `i`).
    Custom(Vec<NodeId>),
}

impl Placement {
    /// Checks that [`Placement::assign`] can resolve this placement for `k`
    /// messages on `n` nodes: its panics as typed errors, for the protocol
    /// constructors, which take the placement from a public config field.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for the first host `>= n` and
    /// [`GraphError::InvalidSize`] if a custom placement does not list
    /// exactly `k` hosts.
    pub(crate) fn validate(&self, n: usize, k: usize) -> Result<(), GraphError> {
        let hosts = match self {
            Placement::Spread | Placement::Random => &[],
            Placement::SingleSource(v) => std::slice::from_ref(v),
            Placement::Custom(hosts) if hosts.len() != k => {
                return Err(GraphError::InvalidSize(format!(
                    "custom placement lists {} hosts for k = {k} messages",
                    hosts.len()
                )));
            }
            Placement::Custom(hosts) => hosts.as_slice(),
        };
        match hosts.iter().find(|&&h| h >= n) {
            Some(&node) => Err(GraphError::NodeOutOfRange { node, n }),
            None => Ok(()),
        }
    }

    /// Resolves the placement to a host node per message.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, a custom placement has the wrong
    /// length, or any host is out of range. The protocol constructors
    /// check the last two first and return a typed error instead.
    #[must_use]
    pub fn assign(&self, n: usize, k: usize, rng: &mut StdRng) -> Vec<NodeId> {
        assert!(n > 0 && k > 0, "need positive n and k");
        let hosts = match self {
            Placement::Spread => (0..k).map(|i| i % n).collect(),
            Placement::SingleSource(v) => vec![*v; k],
            Placement::Random => (0..k).map(|_| rng.gen_range(0..n)).collect(),
            Placement::Custom(hosts) => {
                assert_eq!(hosts.len(), k, "custom placement must list k hosts");
                hosts.clone()
            }
        };
        assert!(
            hosts.iter().all(|&h| h < n),
            "placement host out of range for n = {n}"
        );
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn spread_is_round_robin() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Placement::Spread.assign(3, 5, &mut rng),
            vec![0, 1, 2, 0, 1]
        );
    }

    #[test]
    fn all_to_all_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Placement::Spread.assign(4, 4, &mut rng), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_source_repeats() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Placement::SingleSource(2).assign(5, 3, &mut rng),
            vec![2, 2, 2]
        );
    }

    #[test]
    fn random_is_in_range_and_seed_stable() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let ha = Placement::Random.assign(7, 20, &mut a);
        let hb = Placement::Random.assign(7, 20, &mut b);
        assert_eq!(ha, hb);
        assert!(ha.iter().all(|&h| h < 7));
    }

    #[test]
    fn custom_passthrough() {
        let mut rng = StdRng::seed_from_u64(0);
        let hosts = vec![3, 3, 1];
        assert_eq!(
            Placement::Custom(hosts.clone()).assign(4, 3, &mut rng),
            hosts
        );
    }

    #[test]
    #[should_panic(expected = "k hosts")]
    fn custom_wrong_length_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Placement::Custom(vec![0]).assign(4, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_host_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Placement::SingleSource(9).assign(4, 2, &mut rng);
    }
}
