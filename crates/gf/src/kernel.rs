//! The one kernel-selection rule of the GF(2⁸)/GF(2⁴) slab operations.
//!
//! Three kernel modules compute the same bytes ([`crate::reference`]:
//! product-table loads, [`crate::wide`]: SWAR nibble tables over `u64`
//! words, [`crate::simd`]: `PSHUFB` / `GF2P8MULB`); which one runs is read
//! off the row length and the CPU, never set by a caller.

/// Rows shorter than this run the reference kernel on every CPU: the wide
/// kernels pay a per-multiplier nibble-table build (~30 scalar products)
/// that only amortizes over longer rows, while the reference kernel just
/// indexes a prebuilt product row — which is what keeps rank-only
/// simulations (rows of `k` bytes) fast.
pub const SHORT_ROW_BYTES: usize = 64;

/// The kernel module a bulk operation runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    Reference,
    Wide,
    Simd,
}

/// Short rows take the reference kernel, longer ones SIMD where the CPU has
/// it. Without SIMD, `swar_wins` says whether the field's SWAR kernel beats
/// its product table: true for GF(2⁴) (half the bit steps per word), false
/// for GF(2⁸), where the table build never amortizes at any row length.
pub(crate) fn select(row_bytes: usize, swar_wins: bool) -> Rung {
    if row_bytes < SHORT_ROW_BYTES {
        Rung::Reference
    } else if crate::simd::supported() {
        Rung::Simd
    } else if swar_wins {
        Rung::Wide
    } else {
        Rung::Reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_reads_only_row_length_and_cpu() {
        let long = if crate::simd::supported() {
            [Rung::Simd, Rung::Simd]
        } else {
            [Rung::Reference, Rung::Wide]
        };
        for (i, swar_wins) in [false, true].into_iter().enumerate() {
            for short in [0, 1, SHORT_ROW_BYTES - 1] {
                assert_eq!(select(short, swar_wins), Rung::Reference);
            }
            for len in [SHORT_ROW_BYTES, 1024, 1 << 20] {
                assert_eq!(select(len, swar_wins), long[i]);
            }
        }
    }
}
