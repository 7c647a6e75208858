//! Known-bad annotations: a misspelt marker, an underscore for a hyphen,
//! and an `allow(…)` waiver, which the tool has no grammar for. Each is an
//! `unknown-annotation` finding; none opens or closes a zone.

// ag-lint: hot-paht
fn receive(buf: &mut Vec<u8>) {
    buf.push(0);
}

fn compose(seed: u64) {
    // ag-lint: sharded_phase(begin) — per-slot keys only below
    let draw = seed ^ 1;
    // ag-lint: allow(hash-iteration) — an order-independent sum
    let _ = draw;
}
