//! Hardware persistence backend: real x86-64 cache-line write-back instructions.
//!
//! On the paper's machine the `pwb` of the model maps to `clwb` (with `clflushopt` and
//! `clflush` as progressively older fallbacks) and `pfence` maps to `sfence`. This
//! backend selects the strongest instruction the running CPU supports at construction
//! time and issues it through inline assembly.
//!
//! On non-x86-64 targets the backend compiles to no-ops (with a documented caveat);
//! ARMv8 users would use `DC CVAP` + `DSB`, which we do not emit here because the
//! reproduction environment is x86-64 only.

use crate::backend::PmemBackend;
use crate::stats::PmemStats;

/// Which flush instruction the hardware backend issues for `pwb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushInstruction {
    /// `clwb`: write back without invalidating (the instruction the paper uses).
    Clwb,
    /// `clflushopt`: write back and invalidate, weakly ordered.
    ClflushOpt,
    /// `clflush`: write back and invalidate, strongly ordered (always available).
    Clflush,
    /// No flush instruction available (non-x86-64 build): `pwb` is a compiler fence
    /// only. Data is **not** actually persisted; such builds are for API compatibility.
    None,
}

/// Persistence backend issuing real flush/fence instructions.
///
/// Like [`SimNvram`](crate::SimNvram), the backend issues every instruction it is
/// handed; [persist-epoch elision](crate::epoch) happens in the per-handle
/// [`PmemSession`](crate::PmemSession) layered above it (always enabled here —
/// the same "minimal ordering" discipline, applied to the real instruction
/// stream; the literal-stream A/B runs on [`SimNvram`](crate::SimNvram)).
#[derive(Debug)]
pub struct HardwarePmem {
    instr: FlushInstruction,
    stats: PmemStats,
    /// Per-backend store counter (bumped in `record_store`) used to stamp dedup
    /// entries, making the duplicate-flush elision ABA-proof (see `crate::epoch`).
    store_version: std::sync::atomic::AtomicU64,
}

impl HardwarePmem {
    /// Create a backend using the strongest flush instruction available on this CPU.
    pub fn new() -> Self {
        Self {
            instr: Self::detect(),
            stats: PmemStats::new(),
            store_version: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The flush instruction this backend issues.
    pub fn instruction(&self) -> FlushInstruction {
        self.instr
    }

    #[cfg(target_arch = "x86_64")]
    fn detect() -> FlushInstruction {
        // Feature bits from CPUID leaf 7, sub-leaf 0: EBX bit 23 = CLFLUSHOPT,
        // EBX bit 24 = CLWB. Queried directly because the std feature-detection macro
        // does not expose these names on all toolchains.
        let leaf7 = std::arch::x86_64::__cpuid_count(7, 0);
        if leaf7.ebx & (1 << 24) != 0 {
            FlushInstruction::Clwb
        } else if leaf7.ebx & (1 << 23) != 0 {
            FlushInstruction::ClflushOpt
        } else {
            FlushInstruction::Clflush
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detect() -> FlushInstruction {
        FlushInstruction::None
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn flush(&self, addr: *const u8) {
        // SAFETY: the flush instructions require only that the linear address is
        // canonical and mapped; callers pass addresses of live Rust objects. The
        // instructions have no architecturally visible register effects.
        unsafe {
            match self.instr {
                FlushInstruction::Clwb => {
                    std::arch::asm!("clwb [{0}]", in(reg) addr, options(nostack, preserves_flags));
                }
                FlushInstruction::ClflushOpt => {
                    std::arch::asm!("clflushopt [{0}]", in(reg) addr, options(nostack, preserves_flags));
                }
                FlushInstruction::Clflush => {
                    std::arch::asm!("clflush [{0}]", in(reg) addr, options(nostack, preserves_flags));
                }
                FlushInstruction::None => {
                    std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
                }
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn flush(&self, _addr: *const u8) {
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn fence(&self) {
        // SAFETY: `sfence` has no operands and no side effects beyond ordering.
        unsafe {
            std::arch::asm!("sfence", options(nostack, preserves_flags));
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn fence(&self) {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

impl Default for HardwarePmem {
    fn default() -> Self {
        Self::new()
    }
}

impl PmemBackend for HardwarePmem {
    #[inline]
    fn pwb(&self, addr: *const u8) {
        self.stats.record_pwb();
        self.flush(addr);
    }

    #[inline]
    fn pfence(&self) {
        self.stats.record_pfence();
        self.fence();
    }

    #[inline]
    fn record_store(&self, _addr: *const u8, _val: u64) {
        // Hardware keeps no software image; the store is only counted so dedup
        // stamps can detect intervening stores (ABA closure, see `crate::epoch`).
        self.store_version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    #[inline]
    fn store_version(&self) -> u64 {
        self.store_version
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    #[inline]
    fn pmem_stats(&self) -> Option<&PmemStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_returns_something_usable() {
        let b = HardwarePmem::new();
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b.instruction(), FlushInstruction::None);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(b.instruction(), FlushInstruction::None);
    }

    #[test]
    fn flush_and_fence_execute_on_live_memory() {
        // This exercises the actual instructions (clflush at minimum on x86-64); it
        // must not fault on an ordinary heap allocation.
        let b = HardwarePmem::new();
        let data = vec![0u8; 256];
        for off in (0..256).step_by(64) {
            b.pwb(unsafe { data.as_ptr().add(off) });
        }
        b.pfence();
        assert_eq!(b.pmem_stats().unwrap().pwbs(), 4);
        assert_eq!(b.pmem_stats().unwrap().pfences(), 1);
    }
}
