//! Known-bad: waivers that are themselves invalid — no reason, or an
//! unknown rule name. Both must fire `invalid-waiver`.

pub fn f(set: &HashSet<u32>) -> Option<u32> {
    // ag-lint: allow(hash-iteration)
    let a = set.iter().next().copied();
    // ag-lint: allow(made-up-rule) — the rule name does not exist.
    let b = set.iter().last().copied();
    a.or(b)
}
