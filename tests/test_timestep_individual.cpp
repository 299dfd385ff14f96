/// Individual (binned) multi-time-stepping: the 2^k activity schedule rule,
/// the controller's step-phase convention (kick-start vs force/kick-end
/// sets), per-particle signal-velocity binning, snapped per-particle steps,
/// and bitwise worker-pool invariance of the full binned pipeline on the
/// Evrard collapse.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/simulation.hpp"
#include "ic/evrard.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/timestep.hpp"

using namespace sphexa;

namespace {

/// A controller over six synthetic particles whose CFL candidates are
/// 0.3 * h (unit signal velocity, zero acceleration): h spreads by powers
/// of two, so after the hierarchy forms the bins are 0..maxBins monotone.
struct SyntheticBins
{
    TimestepController<double> ctl;
    ParticleSetD ps;

    explicit SyntheticBins(int maxBins = 3, std::size_t n = 6)
        : ctl(makeParams(maxBins))
        , ps(n)
    {
        for (std::size_t i = 0; i < n; ++i)
        {
            ps.h[i]    = 0.1 * double(1 << std::min<std::size_t>(i, 8));
            ps.c[i]    = 1e-6; // candidates driven by vsig, not sound speed
            ps.vsig[i] = 1.0;
        }
        // first advance: flat initial ramp; second: the real hierarchy
        ctl.advance(ps, 1.0);
        ctl.advance(ps, 1.0);
    }

    static TimestepParams<double> makeParams(int maxBins)
    {
        TimestepParams<double> par;
        par.mode    = TimesteppingMode::Individual;
        par.maxBins = maxBins;
        return par;
    }
};

std::set<std::size_t> asSet(const std::vector<std::size_t>& v)
{
    return {v.begin(), v.end()};
}

SimulationConfig<double> individualEvrardConfig()
{
    SimulationConfig<double> cfg;
    cfg.timestep.mode     = TimesteppingMode::Individual;
    cfg.neighborMode      = NeighborMode::IndividualTreeWalk;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1.0;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    return cfg;
}

Simulation<double> makeIndividualEvrard(std::size_t nSide,
                                        SimulationConfig<double> cfg = individualEvrardConfig())
{
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide   = nSide;
    auto setup = makeEvrard(ps, ic);
    return Simulation<double>(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
}

} // namespace

// --- the schedule rule itself ----------------------------------------------

TEST(IndividualSchedule, BinActivityRuleExhaustive)
{
    // bins 0..3 over 16 phases: bin k is active exactly when the phase is a
    // multiple of 2^k
    for (int k = 0; k <= 3; ++k)
    {
        for (std::uint64_t phase = 0; phase < 16; ++phase)
        {
            bool expected = (phase % (std::uint64_t(1) << k)) == 0;
            EXPECT_EQ(TimestepController<double>::binActive(k, phase), expected)
                << "bin " << k << " phase " << phase;
        }
    }
    // phase 0 (a synchronization) activates every bin
    for (int k = 0; k <= 8; ++k)
    {
        EXPECT_TRUE(TimestepController<double>::binActive(k, 0));
    }
}

// --- the controller's step-phase convention ---------------------------------

TEST(IndividualSchedule, KickStartAndForceSetsFollowConvention)
{
    // Exhaustive small-N schedule: six particles in bins 0..3, followed over
    // 16 driver steps. advance() processes step s and increments the
    // counter; right after it, kickStartSet() must be the particles whose
    // interval STARTS at s and activeParticles() those whose interval ENDS
    // at s + 1 — evaluated against the pure binActive rule.
    SyntheticBins syn(/*maxBins*/ 3);
    auto& ctl = syn.ctl;
    auto& ps  = syn.ps;
    ASSERT_EQ(ctl.maxUsedBin(), 3);

    for (int step = 0; step < 16; ++step)
    {
        std::uint64_t s = ctl.stepCount(); // the step this advance processes
        ctl.advance(ps, 1.0);

        std::set<std::size_t> expectStart, expectEnd;
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            // constant candidates: bins are stable after the hierarchy forms
            if (TimestepController<double>::binActive(ps.bin[i], s - ctl.cycleStart()))
            {
                expectStart.insert(i);
            }
            if (TimestepController<double>::binActive(ps.bin[i],
                                                      s + 1 - ctl.cycleStart()))
            {
                expectEnd.insert(i);
            }
        }
        EXPECT_EQ(asSet(ctl.kickStartSet(ps)), expectStart) << "step " << s;
        EXPECT_EQ(asSet(ctl.activeParticles(ps)), expectEnd) << "step " << s;

        // a bin-k particle is in the force set with period 2^k: the bin-0
        // particle always, the bin-3 particle only at the hierarchy syncs
        EXPECT_TRUE(expectEnd.count(0));
        EXPECT_EQ(expectEnd.count(5) == 1, ctl.atFullSync()) << "step " << s;
    }
}

TEST(IndividualSchedule, FullSyncRebuildsHierarchyEveryCycle)
{
    SyntheticBins syn(/*maxBins*/ 2);
    auto& ctl = syn.ctl;
    auto& ps  = syn.ps;
    ASSERT_EQ(ctl.maxUsedBin(), 2);
    std::uint64_t cycleLen = 4; // 2^maxUsedBin

    std::uint64_t lastSync = ctl.cycleStart();
    for (int step = 0; step < 12; ++step)
    {
        std::uint64_t s = ctl.stepCount();
        ctl.advance(ps, 1.0);
        if ((s - lastSync) % cycleLen == 0 && s != lastSync)
        {
            EXPECT_EQ(ctl.cycleStart(), s) << "sync must re-anchor the cycle";
            lastSync = s;
        }
        else
        {
            EXPECT_EQ(ctl.cycleStart(), lastSync) << "mid-cycle must not re-anchor";
        }
        // snapped per-particle steps at every point of the cycle
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            EXPECT_DOUBLE_EQ(ps.dt[i], ctl.baseDt() * double(1 << ps.bin[i])) << i;
        }
    }
}

// --- per-particle signal velocity (satellite bugfix) -------------------------

TEST(IndividualSchedule, PerParticleVsignalDrivesBins)
{
    // Regression for the global-clamp bug: every particle used to be clamped
    // to the GLOBAL max signal velocity, collapsing dt_i toward uniform and
    // flattening the bin histogram. With identical h but a factor-8 spread
    // in per-particle vsig, the bins must spread even when the global
    // maxVsignal passed to advance() is the largest of them.
    TimestepParams<double> par;
    par.mode    = TimesteppingMode::Individual;
    par.maxBins = 4;
    TimestepController<double> ctl(par);
    ParticleSetD ps(4);
    for (std::size_t i = 0; i < 4; ++i)
    {
        ps.h[i]    = 0.1;
        ps.c[i]    = 1e-6;
        ps.vsig[i] = 8.0 / double(1 << i); // 8, 4, 2, 1
    }
    ctl.advance(ps, 8.0); // flat first step
    ctl.advance(ps, 8.0); // real hierarchy; 8.0 is the global max
    EXPECT_EQ(ps.bin[0], 0);
    EXPECT_EQ(ps.bin[1], 1);
    EXPECT_EQ(ps.bin[2], 2);
    EXPECT_EQ(ps.bin[3], 3);

    // Global mode must keep the clamp (bitwise-compat with the seed): same
    // fields, global mode -> every candidate uses maxVsignal
    TimestepParams<double> gpar;
    gpar.mode = TimesteppingMode::Global;
    for (std::size_t i = 0; i < 4; ++i)
    {
        EXPECT_DOUBLE_EQ(particleTimestep(ps, i, 8.0, gpar),
                         particleTimestep(ps, 0, 8.0, gpar));
    }
}

// --- restore ----------------------------------------------------------------

TEST(IndividualSchedule, RestoreRebuildsBaseDtAndSchedule)
{
    SyntheticBins syn(/*maxBins*/ 3);
    auto& ctl = syn.ctl;
    auto& ps  = syn.ps;
    ctl.advance(ps, 1.0); // move mid-cycle

    TimestepController<double> fresh(SyntheticBins::makeParams(3));
    fresh.restore(ctl.stepCount(), ctl.currentDt(), ctl.baseDt(), ctl.cycleStart());
    fresh.restoreBins(ps);

    EXPECT_DOUBLE_EQ(fresh.baseDt(), ctl.baseDt());
    EXPECT_EQ(fresh.cycleStart(), ctl.cycleStart());
    EXPECT_EQ(fresh.maxUsedBin(), ctl.maxUsedBin());
    EXPECT_EQ(fresh.atFullSync(), ctl.atFullSync());
    EXPECT_EQ(asSet(fresh.activeParticles(ps)), asSet(ctl.activeParticles(ps)));

    // the baseDt fallback (2-arg restore, the pre-fix call shape) must also
    // leave a usable base step: current == base in Individual mode
    TimestepController<double> fallback(SyntheticBins::makeParams(3));
    fallback.restore(ctl.stepCount(), ctl.currentDt());
    EXPECT_DOUBLE_EQ(fallback.baseDt(), ctl.baseDt());
}

// --- the binned pipeline end-to-end ------------------------------------------

TEST(IndividualPipeline, SelectsBinnedAssemblyAndSavesUpdates)
{
    auto sim = makeIndividualEvrard(12);
    EXPECT_TRUE(sim.pipeline().hasPhase(Phase::I_SelfGravity));
    sim.computeForces();

    std::size_t n = sim.particles().size();
    std::size_t updates = 0;
    int steps = 0;
    // run past the first full hierarchy (the first two steps are global-ish)
    for (; steps < 24; ++steps)
    {
        auto rep = sim.advance();
        updates += rep.activeParticles;
    }
    // the active-subset walk must save work vs. stepping everyone
    EXPECT_LT(updates, std::size_t(steps) * n);
    // snapped per-particle steps in the live pipeline
    const auto& ps  = sim.particles();
    const auto& ctl = sim.timestepController();
    for (std::size_t i = 0; i < n; ++i)
    {
        EXPECT_DOUBLE_EQ(ps.dt[i], ctl.baseDt() * double(1 << ps.bin[i])) << i;
    }
}

TEST(IndividualPipeline, SimdBackendDrivesActiveSubsetPhases)
{
    // The lane kernels of phases E-H must feed from active-subset index
    // spans (they gather ps[nbrs[...]] for the controller's force set
    // only). Gates: the binned run is bitwise worker-pool invariant, still
    // saves particle updates, and conserves energy to the binned-integration
    // budget.
    auto runSimd = [&](std::size_t pool) {
        std::size_t saved = WorkerPool::instance().size();
        WorkerPool::instance().resize(pool);
        ParticleSetD ps;
        EvrardConfig<double> ic;
        ic.nSide   = 10;
        auto setup = makeEvrard(ps, ic);
        auto cfg   = individualEvrardConfig();
        cfg.timestep.cflCourant = 0.25;
        Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
        sim.computeForces();
        WorkerPool::instance().resize(saved);
        return sim;
    };

    auto ref = runSimd(1);
    auto c0  = ref.conservation();
    {
        std::size_t saved = WorkerPool::instance().size();
        WorkerPool::instance().resize(1);
        std::size_t n = ref.particles().size(), updates = 0;
        int steps = 0;
        do
        {
            auto rep = ref.advance();
            updates += rep.activeParticles;
            ++steps;
        } while ((steps < 24 || !ref.timestepController().atFullSync()) && steps < 200);
        WorkerPool::instance().resize(saved);
        ASSERT_TRUE(ref.timestepController().atFullSync());
        EXPECT_LT(updates, std::size_t(steps) * n) << "subset walk saved nothing";
        auto c1 = ref.conservation();
        // coarser probe than the golden gallery's nSide-14 run (which holds
        // the 1e-3 budget): resolution, not the lane arithmetic, sets the
        // drift here — the per-pair reference loops gave the same 3.1e-3 to
        // ten digits
        EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(),
                    4e-3 * std::abs(c0.totalEnergy()));
    }

    for (std::size_t pool : {std::size_t{2}, std::size_t{4}})
    {
        auto sim = runSimd(pool);
        std::size_t saved = WorkerPool::instance().size();
        WorkerPool::instance().resize(pool);
        int steps = 0;
        do
        {
            sim.advance();
            ++steps;
        } while ((steps < 24 || !sim.timestepController().atFullSync()) && steps < 200);
        WorkerPool::instance().resize(saved);

        const auto& a = ref.particles();
        const auto& b = sim.particles();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
        {
            ASSERT_EQ(a.x[i], b.x[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.vx[i], b.vx[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.u[i], b.u[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.rho[i], b.rho[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.dt[i], b.dt[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.bin[i], b.bin[i]) << "pool " << pool << " i " << i;
        }
    }
}

TEST(IndividualPipeline, BitwiseInvariantAcrossWorkerPools)
{
    // the binned pipeline must produce bit-identical state for any worker
    // pool size: all reductions are per-worker selections, all SPH loops
    // accumulate-to-self
    auto runPools = [&](std::size_t pool) {
        std::size_t saved = WorkerPool::instance().size();
        WorkerPool::instance().resize(pool);
        auto sim = makeIndividualEvrard(10);
        sim.computeForces();
        sim.run(10);
        WorkerPool::instance().resize(saved);
        return sim;
    };

    auto ref = runPools(1);
    for (std::size_t pool : {std::size_t{2}, std::size_t{4}})
    {
        auto sim = runPools(pool);
        const auto& a = ref.particles();
        const auto& b = sim.particles();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
        {
            ASSERT_EQ(a.x[i], b.x[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.vx[i], b.vx[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.u[i], b.u[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.rho[i], b.rho[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.dt[i], b.dt[i]) << "pool " << pool << " i " << i;
            ASSERT_EQ(a.bin[i], b.bin[i]) << "pool " << pool << " i " << i;
        }
        EXPECT_EQ(ref.timestepController().cycleStart(),
                  sim.timestepController().cycleStart());
    }
}
