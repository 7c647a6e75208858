//! Known-good hot path: cleared-and-reused scratch only; the two growth
//! calls are on receivers `policy::ALLOW_CALLS` lists, standing in for
//! buffers whose capacity the cold constructor reserves up front.

// ag-lint: hot-path
fn receive(buf: &mut Vec<u8>, out: &mut Vec<u8>, row: &[u8]) {
    buf.clear();
    buf.extend_from_slice(row);
    out.resize(row.len(), 0);
    out.copy_from_slice(buf);
}

fn cold_setup(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}
