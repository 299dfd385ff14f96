/// Backend-layer tests (src/backend/): the lane kernels of phases E-H
/// against the per-pair reference loops of tests/scalar_oracle.hpp.
///
/// The contract under test (docs/ARCHITECTURE.md "Backend layer"):
///  - lane results match the oracle to relative tolerance per phase — tight
///    (~1e-12) for the closed-form kernels, whose lanes evaluate the exact
///    per-pair expressions, looser for Sinc, whose lanes read the lookup
///    table instead of calling pow/sin per pair;
///  - lane results are BITWISE invariant across worker-pool sizes and all
///    six scheduling strategies (fixed-order lane reduction);
///  - an active subset computes exactly the full-set rows it names and
///    leaves every other row untouched;
///  - remainder tiles (count % laneWidth != 0) and empty neighbor lists
///    are exact edge cases, not approximations.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "backend/lane_kernel.hpp"
#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "math/rng.hpp"
#include "scalar_oracle.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/eos.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/particles.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

using namespace sphexa;

namespace {

struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

constexpr std::array<KernelType, 6> kAllKernels{
    KernelType::Sinc,       KernelType::CubicSpline, KernelType::WendlandC2,
    KernelType::WendlandC4, KernelType::WendlandC6,  KernelType::DebrunSpiky};

constexpr std::array<SchedulingStrategy, 6> kAllStrategies{
    SchedulingStrategy::Static,    SchedulingStrategy::SelfScheduling,
    SchedulingStrategy::Guided,    SchedulingStrategy::Trapezoid,
    SchedulingStrategy::Factoring, SchedulingStrategy::AdaptiveWeightedFactoring};

/// Per-kernel parity tolerance: the closed-form lanes replicate the oracle's
/// per-pair expressions bitwise, so only the neighbor-sum association
/// differs; the Sinc lanes read the LookupTable (~1e-8 per sample) instead
/// of calling pow/sin.
double parityTol(KernelType k) { return k == KernelType::Sinc ? 2e-6 : 1e-11; }

/// A jittered periodic lattice with a smooth shear + rotation velocity
/// field, all upstream fields (rho/vol/gradh, p/c, IAD coefficients,
/// balsara) filled by the oracle.
struct BackendFixture
{
    ParticleSetD ps;
    Box<double> box;
    Octree<double> tree;
    NeighborList<double> nl{0, 384};
    Kernel<double> kernel;
    LaneKernel<double> lanes;

    explicit BackendFixture(KernelType type, std::size_t side = 10, double jitter = 0.2,
                            bool periodic = true)
        : box({0, 0, 0}, {1, 1, 1}, periodic, periodic, periodic), kernel(type), lanes(kernel)
    {
        cubicLattice(ps, side, side, side, box);
        double dx = 1.0 / double(side);
        if (jitter > 0) jitterPositions(ps, box, dx, jitter, 42);
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ps.m[i] = 1.0 / double(ps.size());
            ps.h[i] = initialSmoothingLength(ps.size(), box, 60u);
            ps.u[i] = 1.0;
            // smooth, non-trivial velocity field: shear + rigid rotation
            ps.vx[i] = 0.3 * ps.y[i] - 0.1 * ps.z[i];
            ps.vy[i] = -0.2 * ps.x[i] + 0.05 * std::sin(6.28 * ps.z[i]);
            ps.vz[i] = 0.15 * ps.x[i] + 0.1 * ps.y[i];
        }
        tree.build(ps.x, ps.y, ps.z, box);
        nl.reset(ps.size(), 384);
        SmoothingLengthParams<double> hp;
        hp.targetNeighbors = 60;
        hp.tolerance       = 10;
        updateSmoothingLengths(ps, tree, nl, hp);
        symmetrizeNeighborList(ps.x, ps.y, ps.z, ps.h, box, nl);
        fillUpstream(ps);
    }

    /// Oracle prerequisites for the phase under test: density, EOS, IAD
    /// coefficients and the div/curl (balsara) pass.
    void fillUpstream(ParticleSetD& target) const
    {
        computeVolumeElementWeights(target, VolumeElements::Standard);
        oracle::densityOracle(target, nl, kernel, box);
        Eos<double> eos{IdealGasEos<double>(5.0 / 3.0)};
        for (std::size_t i = 0; i < target.size(); ++i)
        {
            auto res    = eos(target.rho[i], target.u[i]);
            target.p[i] = res.pressure;
            target.c[i] = res.soundSpeed;
        }
        oracle::iadOracle(target, nl, kernel, box);
        oracle::divCurlOracle(target, nl, kernel, box, GradientMode::IAD);
    }
};

/// |a-b| <= tol * scale, with scale the max magnitude of the reference
/// field (mixed abs/rel: fields like ax hover near zero on near-uniform
/// sets, where a pure relative gate is meaningless).
void expectFieldNear(const std::vector<double>& ref, const std::vector<double>& got,
                     double tol, const char* what)
{
    ASSERT_EQ(ref.size(), got.size());
    double scale = 1e-30;
    for (double v : ref)
        scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < ref.size(); ++i)
    {
        EXPECT_NEAR(ref[i], got[i], tol * scale) << what << " i=" << i;
    }
}

void expectFieldBitwise(const std::vector<double>& ref, const std::vector<double>& got,
                        const char* what)
{
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
    {
        // exact representation match, not tolerance
        EXPECT_EQ(ref[i], got[i]) << what << " i=" << i;
    }
}

} // namespace

// --- LaneKernel vs Kernel, single-lane -------------------------------------

TEST(LaneKernel, MatchesKernelAcrossSupport)
{
    for (KernelType type : kAllKernels)
    {
        Kernel<double> kernel(type);
        LaneKernel<double> lanes(kernel);
        double tol = type == KernelType::Sinc ? 2e-7 : 0.0;
        for (int k = 0; k <= 2200; ++k)
        {
            double q = 2.2 * double(k) / 2200.0;
            double f, df;
            lanes.fdf(q, f, df);
            if (tol == 0.0)
            {
                // closed forms replicate fq/dfq bitwise
                EXPECT_EQ(f, kernel.fq(q)) << kernelName(type) << " q=" << q;
                EXPECT_EQ(df, kernel.dfq(q)) << kernelName(type) << " q=" << q;
            }
            else
            {
                EXPECT_NEAR(f, kernel.fq(q), tol) << "q=" << q;
                EXPECT_NEAR(df, kernel.dfq(q), tol * 10) << "q=" << q;
            }
        }
        // the self-contribution sample must be exact for every kernel: the
        // density self term uses q=0 and is gated bitwise elsewhere
        double f0, df0;
        lanes.fdf(0.0, f0, df0);
        EXPECT_EQ(f0, kernel.fq(0.0)) << kernelName(type);
    }
}

// --- per-phase lanes vs oracle parity --------------------------------------

class BackendParity : public ::testing::TestWithParam<KernelType>
{
};

TEST_P(BackendParity, DensityMatchesScalar)
{
    BackendFixture f(GetParam());
    auto scalar = f.ps;
    auto vec    = f.ps;
    oracle::densityOracle(scalar, f.nl, f.kernel, f.box);
    computeDensity(vec, f.nl, f.lanes, f.box);
    double tol = parityTol(GetParam());
    expectFieldNear(scalar.rho, vec.rho, tol, "rho");
    expectFieldNear(scalar.vol, vec.vol, tol, "vol");
    expectFieldNear(scalar.gradh, vec.gradh, tol, "gradh");
}

TEST_P(BackendParity, IadCoefficientsMatchScalar)
{
    BackendFixture f(GetParam());
    auto scalar = f.ps;
    auto vec    = f.ps;
    oracle::iadOracle(scalar, f.nl, f.kernel, f.box);
    computeIadCoefficients(vec, f.nl, f.lanes, f.box);
    double tol = parityTol(GetParam());
    expectFieldNear(scalar.c11, vec.c11, tol, "c11");
    expectFieldNear(scalar.c12, vec.c12, tol, "c12");
    expectFieldNear(scalar.c13, vec.c13, tol, "c13");
    expectFieldNear(scalar.c22, vec.c22, tol, "c22");
    expectFieldNear(scalar.c23, vec.c23, tol, "c23");
    expectFieldNear(scalar.c33, vec.c33, tol, "c33");
}

TEST_P(BackendParity, DivCurlMatchesScalarBothGradientModes)
{
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        BackendFixture f(GetParam());
        auto scalar = f.ps;
        auto vec    = f.ps;
        oracle::divCurlOracle(scalar, f.nl, f.kernel, f.box, mode);
        computeDivCurl(vec, f.nl, f.lanes, f.box, mode);
        double tol = parityTol(GetParam());
        expectFieldNear(scalar.divv, vec.divv, tol, "divv");
        expectFieldNear(scalar.curlv, vec.curlv, tol, "curlv");
        expectFieldNear(scalar.balsara, vec.balsara, 10 * tol, "balsara");
    }
}

TEST_P(BackendParity, MomentumEnergyMatchesScalarBothGradientModes)
{
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        BackendFixture f(GetParam());
        auto scalar = f.ps;
        auto vec    = f.ps;
        double sMax = oracle::momentumEnergyOracle(scalar, f.nl, f.kernel, f.box, mode);
        auto vStats = computeMomentumEnergy(vec, f.nl, f.lanes, f.box, mode);
        double tol = parityTol(GetParam());
        expectFieldNear(scalar.ax, vec.ax, tol, "ax");
        expectFieldNear(scalar.ay, vec.ay, tol, "ay");
        expectFieldNear(scalar.az, vec.az, tol, "az");
        expectFieldNear(scalar.du, vec.du, tol, "du");
        expectFieldNear(scalar.vsig, vec.vsig, tol, "vsig");
        EXPECT_NEAR(sMax, vStats.maxVsignal, tol * std::abs(sMax));
    }
}

namespace {

using Field   = std::vector<double> ParticleSetD::*;
using Indices = std::span<const std::size_t>;

/// A field a phase writes, with its parity tolerance as a multiple of
/// parityTol (the Balsara limiter divides by |div v| + |curl v|, which
/// amplifies the relative error, see DivCurlMatchesScalarBothGradientModes).
struct Output
{
    Field field;
    double tolFactor = 1;
};

/// One phase under test: the fields it writes, and the phase run on the
/// lanes and on the oracle over an index set (empty: all particles).
struct PhaseCase
{
    std::string name;
    std::vector<Output> outputs;
    std::function<void(ParticleSetD&, Indices)> lanes;
    std::function<void(ParticleSetD&, Indices)> oracle;
};

std::vector<PhaseCase> allPhases(const BackendFixture& f)
{
    std::vector<PhaseCase> cases{
        {"density",
         {{&ParticleSetD::rho}, {&ParticleSetD::vol}, {&ParticleSetD::gradh}},
         [&](ParticleSetD& ps, Indices a) { computeDensity(ps, f.nl, f.lanes, f.box, a); },
         [&](ParticleSetD& ps, Indices a) { oracle::densityOracle(ps, f.nl, f.kernel, f.box, a); }},
        {"iad",
         {{&ParticleSetD::c11}, {&ParticleSetD::c12}, {&ParticleSetD::c13},
          {&ParticleSetD::c22}, {&ParticleSetD::c23}, {&ParticleSetD::c33}},
         [&](ParticleSetD& ps, Indices a) { computeIadCoefficients(ps, f.nl, f.lanes, f.box, a); },
         [&](ParticleSetD& ps, Indices a) { oracle::iadOracle(ps, f.nl, f.kernel, f.box, a); }},
    };
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        std::string suffix(gradientModeName(mode));
        cases.push_back(
            {"divcurl/" + suffix,
             {{&ParticleSetD::divv}, {&ParticleSetD::curlv}, {&ParticleSetD::balsara, 10}},
             [&f, mode](ParticleSetD& ps, Indices a) {
                 computeDivCurl(ps, f.nl, f.lanes, f.box, mode, a);
             },
             [&f, mode](ParticleSetD& ps, Indices a) {
                 oracle::divCurlOracle(ps, f.nl, f.kernel, f.box, mode, a);
             }});
        cases.push_back(
            {"momentum/" + suffix,
             {{&ParticleSetD::ax}, {&ParticleSetD::ay}, {&ParticleSetD::az},
              {&ParticleSetD::du}, {&ParticleSetD::vsig}},
             [&f, mode](ParticleSetD& ps, Indices a) {
                 computeMomentumEnergy(ps, f.nl, f.lanes, f.box, mode, {}, a);
             },
             [&f, mode](ParticleSetD& ps, Indices a) {
                 oracle::momentumEnergyOracle(ps, f.nl, f.kernel, f.box, mode, {}, a);
             }});
    }
    return cases;
}

} // namespace

TEST_P(BackendParity, ActiveSubsetMatchesOracleAndFullSet)
{
    // the phase shells index through `active` (individual time-stepping):
    // a strided subset must compute exactly its rows of the full-set run,
    // within tolerance of the oracle, and write nothing else
    BackendFixture f(GetParam());
    std::vector<std::size_t> active;
    for (std::size_t i = 1; i < f.ps.size(); i += 3)
        active.push_back(i);
    std::vector<bool> isActive(f.ps.size(), false);
    for (std::size_t i : active)
        isActive[i] = true;
    constexpr double kUntouched = -12345.0;
    double tol = parityTol(GetParam());

    for (const auto& phase : allPhases(f))
    {
        SCOPED_TRACE(phase.name);
        auto full = f.ps;
        phase.lanes(full, {});
        auto ref = f.ps;
        phase.oracle(ref, active);
        auto sub = f.ps;
        for (const auto& out : phase.outputs)
            std::fill((sub.*out.field).begin(), (sub.*out.field).end(), kUntouched);
        phase.lanes(sub, active);

        for (const auto& out : phase.outputs)
        {
            const auto& r = ref.*out.field;
            const auto& g = sub.*out.field;
            double scale = 1e-30;
            for (std::size_t i : active)
                scale = std::max(scale, std::abs(r[i]));
            for (std::size_t i = 0; i < g.size(); ++i)
            {
                if (isActive[i])
                {
                    EXPECT_NEAR(r[i], g[i], out.tolFactor * tol * scale) << "i=" << i;
                    EXPECT_EQ((full.*out.field)[i], g[i]) << "i=" << i;
                }
                else
                {
                    EXPECT_EQ(g[i], kUntouched) << "i=" << i;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, BackendParity, ::testing::ValuesIn(kAllKernels),
                         [](const auto& info) {
                             // display names like "M4 spline" are not valid
                             // gtest identifiers; keep alphanumerics only
                             std::string name(kernelName(info.param));
                             std::erase_if(name, [](unsigned char c) {
                                 return std::isalnum(c) == 0;
                             });
                             return name;
                         });

// --- parity on an open (non-periodic) box ----------------------------------

TEST(BackendParityOpenBox, AllPhasesMatchScalar)
{
    // exercises the infinite-half-width wrap path (selects never fire)
    BackendFixture f(KernelType::WendlandC2, 10, 0.2, /*periodic=*/false);
    auto scalar = f.ps;
    auto vec    = f.ps;
    oracle::densityOracle(scalar, f.nl, f.kernel, f.box);
    computeDensity(vec, f.nl, f.lanes, f.box);
    oracle::iadOracle(scalar, f.nl, f.kernel, f.box);
    computeIadCoefficients(vec, f.nl, f.lanes, f.box);
    oracle::divCurlOracle(scalar, f.nl, f.kernel, f.box, GradientMode::IAD);
    computeDivCurl(vec, f.nl, f.lanes, f.box, GradientMode::IAD);
    oracle::momentumEnergyOracle(scalar, f.nl, f.kernel, f.box, GradientMode::IAD);
    computeMomentumEnergy(vec, f.nl, f.lanes, f.box, GradientMode::IAD);
    double tol = parityTol(KernelType::WendlandC2);
    expectFieldNear(scalar.rho, vec.rho, tol, "rho");
    expectFieldNear(scalar.c11, vec.c11, tol, "c11");
    expectFieldNear(scalar.divv, vec.divv, tol, "divv");
    expectFieldNear(scalar.ax, vec.ax, tol, "ax");
    expectFieldNear(scalar.du, vec.du, tol, "du");
}

// --- lane bitwise invariance across pools and strategies -------------------

TEST(BackendInvariance, SimdBitwiseAcrossPoolsAndStrategies)
{
    BackendFixture f(KernelType::Sinc, 8);

    // reference: pool of 1, Static
    ParticleSetD ref;
    {
        PoolSizeGuard guard(1);
        ref = f.ps;
        computeDensity(ref, f.nl, f.lanes, f.box);
        computeIadCoefficients(ref, f.nl, f.lanes, f.box);
        computeDivCurl(ref, f.nl, f.lanes, f.box, GradientMode::IAD);
        computeMomentumEnergy(ref, f.nl, f.lanes, f.box, GradientMode::IAD);
    }

    for (std::size_t pool : {1u, 2u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (SchedulingStrategy strat : kAllStrategies)
        {
            LoopPolicy pol;
            pol.strategy = strat;
            std::vector<double> awf; // AWF needs a weight vector to adapt
            if (strat == SchedulingStrategy::AdaptiveWeightedFactoring)
                pol.awfWeights = &awf;

            auto ps = f.ps;
            computeDensity(ps, f.nl, f.lanes, f.box, {}, pol);
            computeIadCoefficients(ps, f.nl, f.lanes, f.box, {}, pol);
            computeDivCurl(ps, f.nl, f.lanes, f.box, GradientMode::IAD, {}, pol);
            computeMomentumEnergy(ps, f.nl, f.lanes, f.box, GradientMode::IAD, {}, {}, pol);

            expectFieldBitwise(ref.rho, ps.rho, "rho");
            expectFieldBitwise(ref.gradh, ps.gradh, "gradh");
            expectFieldBitwise(ref.c11, ps.c11, "c11");
            expectFieldBitwise(ref.c33, ps.c33, "c33");
            expectFieldBitwise(ref.divv, ps.divv, "divv");
            expectFieldBitwise(ref.balsara, ps.balsara, "balsara");
            expectFieldBitwise(ref.ax, ps.ax, "ax");
            expectFieldBitwise(ref.du, ps.du, "du");
            expectFieldBitwise(ref.vsig, ps.vsig, "vsig");
        }
    }
}

// --- remainder tiles and empty neighborhoods -------------------------------

TEST(BackendEdgeCases, RemainderTilesAndEmptyLists)
{
    // particle i carries exactly i neighbors: spans empty (0), partial
    // tiles, exact multiples of the lane width (8, 16) and remainders
    const std::size_t n = 2 * backend::kLaneWidth + 4; // 20 with width 8
    BackendFixture f(KernelType::CubicSpline, 6, 0.15);
    ASSERT_GE(f.ps.size(), n);

    using Index = NeighborList<double>::Index;
    NeighborList<double> nl(f.ps.size(), 64);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        std::vector<Index> nbs;
        std::size_t want = i < n ? i : (i % n);
        for (std::size_t j = 0; nbs.size() < want; ++j)
        {
            if (j == i) continue;
            nbs.push_back(Index(j));
        }
        nl.set(i, nbs);
    }

    auto scalar = f.ps;
    auto vec    = f.ps;
    oracle::densityOracle(scalar, nl, f.kernel, f.box);
    computeDensity(vec, nl, f.lanes, f.box);
    oracle::iadOracle(scalar, nl, f.kernel, f.box);
    computeIadCoefficients(vec, nl, f.lanes, f.box);
    oracle::divCurlOracle(scalar, nl, f.kernel, f.box, GradientMode::IAD);
    computeDivCurl(vec, nl, f.lanes, f.box, GradientMode::IAD);
    oracle::momentumEnergyOracle(scalar, nl, f.kernel, f.box, GradientMode::IAD);
    computeMomentumEnergy(vec, nl, f.lanes, f.box, GradientMode::IAD);

    double tol = parityTol(KernelType::CubicSpline);
    expectFieldNear(scalar.rho, vec.rho, tol, "rho");
    expectFieldNear(scalar.gradh, vec.gradh, tol, "gradh");
    expectFieldNear(scalar.c11, vec.c11, tol, "c11");
    expectFieldNear(scalar.divv, vec.divv, tol, "divv");
    expectFieldNear(scalar.ax, vec.ax, tol, "ax");
    expectFieldNear(scalar.du, vec.du, tol, "du");

    // the empty row (particle 0) is exact: self-only density, zero motion
    EXPECT_EQ(scalar.rho[0], vec.rho[0]);
    EXPECT_EQ(vec.divv[0], 0.0);
    EXPECT_EQ(vec.ax[0], 0.0);
    EXPECT_EQ(vec.du[0], 0.0);
    EXPECT_EQ(vec.vsig[0], 0.0);
}
