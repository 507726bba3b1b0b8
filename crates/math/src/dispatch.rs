//! Run-time choice of a lane kernel's compiled copy.
//!
//! The workspace builds for baseline x86-64, whose vector registers hold
//! two `f64`s. A lane kernel — a loop whose lanes are independent
//! results — runs through [`Isa::run`], which executes the same body
//! either as compiled for the baseline or as compiled a second time with
//! AVX2 enabled (four `f64`s per register), chosen from what the CPU
//! reports. Other architectures build the portable copy only.
//!
//! The two copies compute the same bits. A kernel's lanes are separate
//! results, each with its own chain of additions in its own order, so a
//! wider register only computes more of them per instruction; the
//! compiler never reassociates floating-point arithmetic, and FMA is not
//! enabled, so no multiply and add are fused into one rounding.
//!
//! This module is the workspace's only use of the `unsafe` keyword.

/// Which compiled copy of a lane kernel runs. A value other than the
/// portable one exists only when the CPU reported the feature it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The portable copy, runnable on every CPU.
    const PORTABLE: Isa = Isa { avx2: false };

    /// The widest copy this CPU runs.
    pub fn best() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Isa { avx2: true };
        }
        Isa::PORTABLE
    }

    /// Every copy this CPU runs, portable first: what a kernel's tests
    /// iterate, so the portable copy is checked on a CPU that would
    /// never pick it.
    pub fn available() -> impl Iterator<Item = Isa> {
        let best = Isa::best();
        std::iter::once(Isa::PORTABLE).chain((best != Isa::PORTABLE).then_some(best))
    }

    /// Runs `kernel` as compiled for this copy.
    ///
    /// The second copy exists only where the kernel's code is inlined
    /// into the AVX2 entry point, so pass an `#[inline(always)]` closure
    /// whose body calls `#[inline(always)]` functions: a call the
    /// compiler leaves out of line runs its portable code.
    #[inline(always)]
    pub fn run<R>(self, kernel: impl FnOnce() -> R) -> R {
        if self.avx2 {
            // SAFETY: `avx2` is true only in a value `Isa::best` built
            // after `is_x86_feature_detected!("avx2")` returned true (the
            // field is private and `PORTABLE` leaves it false), so the CPU
            // executes the AVX2 instructions `on_avx2` is compiled with.
            #[cfg(target_arch = "x86_64")]
            return unsafe { on_avx2(kernel) };
        }
        kernel()
    }
}

/// `kernel`, compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn on_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernels' tests iterate `available`: it must list the portable
    /// copy, then the best one if that is another.
    #[test]
    fn available_lists_the_portable_copy_then_the_best() {
        let all: Vec<Isa> = Isa::available().collect();
        let best = Isa::best();
        assert_eq!(all, if best == Isa::PORTABLE { vec![best] } else { vec![Isa::PORTABLE, best] });
    }
}
