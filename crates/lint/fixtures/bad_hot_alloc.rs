//! Known-bad hot-path allocations: macros, path constructors (turbofish
//! and qualified too) and allocating method calls inside hot-path zones,
//! plus a region boundary check (allocations after `(end)` are legal).

// ag-lint: hot-path
fn receive(buf: &mut Vec<u8>, row: &[u8]) {
    let copy = row.to_vec();
    buf.push(copy[0]);
    let extra = vec![0u8; 4];
    let boxed = Box::new(extra);
    drop(boxed);
}

fn cold() -> Vec<u8> {
    vec![1, 2, 3]
}

fn mixed(n: usize) {
    let mut acc = 0;
    // ag-lint: hot-path(begin) — the inner loop only
    for i in 0..n {
        let v = Vec::with_capacity(i);
        acc += v.len();
    }
    // ag-lint: hot-path(end)
    let tail: Vec<usize> = (0..n).collect();
    let _ = (acc, tail);
}

// ag-lint: hot-path
fn qualified() {
    let a = Vec::<u8>::with_capacity(4);
    let b = Box::<u8>::new(1);
    let c: Vec<u8> = std::vec::Vec::new();
    drop((a, b, c));
}
