//! The one kernel-selection rule of the GF(2⁸) slab operations.
//!
//! Two kernel modules compute the same bytes ([`crate::reference`]:
//! product-table loads, [`crate::simd`]: `PSHUFB` / `GF2P8MULB`); which one
//! runs is read off the row length and the CPU, never set by a caller.
//! Every other field has one kernel and no rule.

/// Where a kernel pays a per-multiplier table build, rows shorter than this
/// run the reference kernel instead: the build (~30 scalar products for the
/// `PSHUFB` nibble tables) only amortizes over longer rows, while the
/// reference kernel just indexes a prebuilt product row. `GF2P8MULB` builds
/// nothing, so on a GFNI CPU rows ignore this bound.
pub const SHORT_ROW_BYTES: usize = 64;

/// Does a GF(2⁸) row of `row_bytes` run [`crate::simd`] (else
/// [`crate::reference`])? On a GFNI CPU always: the instruction is the
/// field, so there is no table build for a short row to lose to. Below
/// GFNI, from [`SHORT_ROW_BYTES`] on where the CPU has `PSHUFB`.
pub(crate) fn use_simd(row_bytes: usize) -> bool {
    crate::simd::gf256_is_table_free() || (row_bytes >= SHORT_ROW_BYTES && crate::simd::supported())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_reads_only_row_length_and_cpu() {
        crate::simd::for_each_level(|level| {
            let short = matches!(level, "gfni" | "gfni512");
            let long = level != "portable";
            for len in [0, 1, SHORT_ROW_BYTES - 1] {
                assert_eq!(use_simd(len), short, "{level} len={len}");
            }
            for len in [SHORT_ROW_BYTES, 1024, 1 << 20] {
                assert_eq!(use_simd(len), long, "{level} len={len}");
            }
        });
    }
}
