//! The one kernel-selection rule of the GF(2⁸)/GF(2⁴) slab operations.
//!
//! Three kernel modules compute the same bytes ([`crate::reference`]:
//! product-table loads, [`crate::wide`]: SWAR nibble tables over `u64`
//! words, [`crate::simd`]: `PSHUFB` / `GF2P8MULB`); which one runs is read
//! off the field, the row length and the CPU, never set by a caller.

/// Where a kernel pays a per-multiplier table build, rows shorter than this
/// run the reference kernel instead: the build (~30 scalar products for the
/// `PSHUFB` and SWAR nibble tables) only amortizes over longer rows, while
/// the reference kernel just indexes a prebuilt product row. `GF2P8MULB`
/// builds nothing, so on a GFNI CPU the GF(2⁸) rows ignore this bound.
pub const SHORT_ROW_BYTES: usize = 64;

/// The kernel module a bulk operation runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    Reference,
    Wide,
    Simd,
}

/// The two fields whose slab operations have more than one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelField {
    Gf16,
    Gf256,
}

/// GF(2⁸) on a GFNI CPU runs SIMD at every row length: the instruction is
/// the field, so there is no table build for a short row to lose to. Every
/// other case keeps short rows on the reference kernel and sends longer
/// ones to SIMD where the CPU has it. Without SIMD the field's SWAR kernel
/// runs where it beats the product table: for GF(2⁴) (half the bit steps
/// per word), not for GF(2⁸), where its table build never amortizes.
pub(crate) fn select(row_bytes: usize, field: KernelField) -> Rung {
    match field {
        KernelField::Gf256 if crate::simd::gf256_is_table_free() => Rung::Simd,
        _ if row_bytes < SHORT_ROW_BYTES => Rung::Reference,
        _ if crate::simd::supported() => Rung::Simd,
        KernelField::Gf16 => Rung::Wide,
        KernelField::Gf256 => Rung::Reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_reads_only_row_length_and_cpu() {
        crate::simd::for_each_level(|level| {
            let gfni = matches!(level, "gfni" | "gfni512");
            let (long256, long16) = if level == "portable" {
                (Rung::Reference, Rung::Wide)
            } else {
                (Rung::Simd, Rung::Simd)
            };
            let short256 = if gfni { Rung::Simd } else { Rung::Reference };
            for short in [0, 1, SHORT_ROW_BYTES - 1] {
                assert_eq!(select(short, KernelField::Gf256), short256, "{level}");
                assert_eq!(select(short, KernelField::Gf16), Rung::Reference);
            }
            for len in [SHORT_ROW_BYTES, 1024, 1 << 20] {
                assert_eq!(select(len, KernelField::Gf256), long256, "{level}");
                assert_eq!(select(len, KernelField::Gf16), long16, "{level}");
            }
        });
    }
}
