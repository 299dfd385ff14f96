#pragma once

/// \file kernel_backend.hpp
/// The compute-backend dispatch seam of the phase kernels (ROADMAP:
/// "pluggable execution backend beyond the thread pool").
///
/// Phases E-H (density, IAD, div/curl, momentum-energy) are thin dispatch
/// shells over stateless per-particle kernels (src/backend/*_kernel.hpp);
/// a ComputeBackend selects which implementation the shell runs:
///
///  - Scalar: the reference per-pair loops, bitwise identical to the seed
///    solver for every pool size and scheduling strategy.
///  - Simd:   fixed-width lane tiles over gathered neighbor batches
///    (simd_tile.hpp), kernel arithmetic evaluated branch-free across lanes
///    (lane_kernel.hpp), lanes reduced in fixed index order — so Simd
///    results are themselves bitwise pool-size- and strategy-invariant,
///    but differ from Scalar by FP re-association of the neighbor sums
///    (tolerance-gated in tests/test_backend.cpp, see ARCHITECTURE.md).
///
/// The selection is a SimulationConfig field plumbed by the drivers through
/// StepContext into the PipelineFactory phase ops. Two defaults differ on
/// purpose: SimulationConfig::kernelBackend is Simd, so both drivers and
/// every preset run the lane kernels (the fast path, see config.hpp); a
/// default-constructed ComputeBackend<T>{} is Scalar, so standalone
/// callers of computeDensity & friends get the bitwise reference loops
/// unless they ask for lanes.

#include <cstdlib>
#include <string_view>

namespace sphexa {

/// Which inner-kernel implementation the SPH phase shells dispatch to.
enum class KernelBackend
{
    Scalar,
    Simd,
};

constexpr std::string_view kernelBackendName(KernelBackend b)
{
    return b == KernelBackend::Scalar ? "Scalar" : "Simd";
}

/// Backend selection from the SPHEXA_KERNEL_BACKEND environment variable
/// ("scalar" or "simd", any case of the first letter): the hook the CI
/// matrix uses to re-run the golden gallery per backend leg without a
/// per-leg binary. Unset or unrecognized values keep \p fallback.
inline KernelBackend kernelBackendFromEnv(KernelBackend fallback = KernelBackend::Scalar)
{
    const char* v = std::getenv("SPHEXA_KERNEL_BACKEND");
    if (!v) return fallback;
    std::string_view s(v);
    if (s == "simd" || s == "Simd" || s == "SIMD") return KernelBackend::Simd;
    if (s == "scalar" || s == "Scalar" || s == "SCALAR") return KernelBackend::Scalar;
    return fallback;
}

template<class T>
class LaneKernel;

/// The dispatch handle a phase shell receives: the backend kind plus the
/// driver-owned lane evaluator (lane_kernel.hpp). Null-safe like the other
/// driver-owned StepContext scratch (sorter/clusters): a Simd dispatch with
/// no lanes builds a transient evaluator — correct, just re-tabulating the
/// sinc tables on every call.
template<class T>
struct ComputeBackend
{
    KernelBackend kind = KernelBackend::Scalar; ///< standalone default: the reference
    const LaneKernel<T>* lanes = nullptr;
};

} // namespace sphexa
