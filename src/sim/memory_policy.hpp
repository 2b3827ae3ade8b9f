// Process memory policy: keep the heap from holding on to freed set-up
// memory.
//
// glibc's malloc serves chunks above an mmap threshold (128 KiB by
// default) with mmap and returns them to the kernel on free.  But the
// first freed mmapped chunk raises that threshold to the chunk's size (up
// to 32 MiB) and the heap trim threshold to twice that.  From then on the
// table builds' staging buffers, which pool workers allocate in their own
// arenas, and the per-run SimWorkspace arrays come from malloc heaps,
// where freed memory stays resident and where the main thread cannot reuse
// a worker arena's pages.  Every Testbed after the first then peaks about
// twice as high.  Fixing both thresholds turns that adjustment off.
#pragma once

#include <optional>

namespace itb {

/// Sets the process's malloc thresholds (glibc: M_MMAP_THRESHOLD and
/// M_TRIM_THRESHOLD, both 128 KiB) so freed large blocks go back to the
/// kernel.  Does nothing on other C libraries.  Idempotent; the Testbed
/// constructor calls it once per process.
void apply_memory_policy();

/// The process's resident set (VmRSS) in MB, read from /proc/self/status;
/// nullopt where that file is missing or has no VmRSS line.
[[nodiscard]] std::optional<double> resident_mb();

/// The process's peak resident set (VmHWM) in MB, the same way.
[[nodiscard]] std::optional<double> peak_resident_mb();

}  // namespace itb
