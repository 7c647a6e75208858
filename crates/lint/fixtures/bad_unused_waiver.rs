//! Known-bad waiver hygiene: the first waiver's hash set is long gone, so
//! the waiver itself must fire; the second still suppresses a live
//! iteration and must stay silent.

fn tidy(sorted: &BTreeSet<u32>) -> u32 {
    // ag-lint: allow(hash-iteration) — historical HashSet, since replaced
    sorted.iter().sum()
}

fn live(set: &HashSet<u32>) -> u32 {
    // ag-lint: allow(hash-iteration) — a commutative sum: order-independent
    set.iter().sum()
}
