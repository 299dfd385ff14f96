/// \file bench_gravity.cpp
/// Self-gravity layer bench, in two parts:
///  - M2P: nanoseconds per multipole-to-particle evaluation at each order,
///    the closed forms of src/tree/multipole.hpp against the generic
///    tensor contraction of tests/multipole_oracle.hpp, on the node
///    multipoles of a Plummer-like cluster's octree, one thread;
///  - ablation: cost AND accuracy of the Barnes-Hut solver across
///    multipole orders (2-pole .. 16-pole, Table 1's SPHYNX-vs-ChaNGa
///    choice) and opening angles {0.8, 0.5, 0.3} against the direct sum.
/// Emits one JSON document, the data behind BENCH_gravity.json:
///
///     ./bench_gravity > BENCH_gravity.json
///
/// Two gates make this a regression fence, not just a report: every
/// closed-form M2P must match the oracle within 1e-12 relative, and the
/// hexadecapole M2P must beat the oracle by at least 10x. The bench exits
/// non-zero when either fails.
///
/// Environment:
///   SPHEXA_GRAVITY_N=NNN   cluster size (default 8000; CI uses a small N
///                          for a smoke run)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "math/rng.hpp"
#include "multipole_oracle.hpp"
#include "parallel/parallel_for.hpp"
#include "perf/timer.hpp"
#include "sph/particles.hpp"
#include "tree/gravity.hpp"
#include "tree/octree.hpp"

using namespace sphexa;

namespace {

constexpr double kParityTolerance = 1e-12;
constexpr double kMinSpeedup      = 10.0;

ParticleSetD plummerCluster(std::size_t n)
{
    ParticleSetD ps(n);
    Xoshiro256pp rng(7);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i] = 0.5 + 0.08 * rng.normal();
        ps.y[i] = 0.5 + 0.08 * rng.normal();
        ps.z[i] = 0.5 + 0.08 * rng.normal();
        ps.m[i] = 1.0 / double(n);
    }
    return ps;
}

/// One M2P evaluation: a node multipole and the displacement of a target
/// 2-4 node sizes away from its center of mass (an accepted distance at
/// the default opening angles).
struct M2PCase
{
    const Multipole<double>* mp;
    Vec3<double> s;
};

struct M2PPoint
{
    MultipoleOrder order;
    double closedNs  = 0;
    double oracleNs  = 0;
    double maxRelDiff = 0;
};

/// Best-of-3 ns per evaluation of \p eval over all cases, each trial at
/// least \p minSeconds long, after one untimed trial that warms caches and
/// clocks. The field sums feed \p sink so nothing is optimized away.
template<class Eval>
double timeM2P(const std::vector<M2PCase>& cases, double minSeconds, Eval eval, double& sink)
{
    double best = 1e300;
    for (int trial = 0; trial <= 3; ++trial)
    {
        std::size_t evals = 0;
        Timer t;
        do
        {
            Vec3<double> acc{};
            double pot = 0;
            for (const auto& c : cases)
                eval(*c.mp, c.s, acc, pot);
            sink += pot + acc.x + acc.y + acc.z;
            evals += cases.size();
        } while (t.elapsed() < minSeconds);
        if (trial > 0) best = std::min(best, t.elapsed() * 1e9 / double(evals));
    }
    return best;
}

std::vector<M2PPoint> benchM2P(const Octree<double>& tree, const ParticleSetD& ps,
                               std::size_t& caseCount, double& sink)
{
    GravityParams<double> params;
    params.order = MultipoleOrder::Hexadecapole;
    GravitySolver<double> solver;
    solver.prepare(tree, ps, params);

    Xoshiro256pp rng(11);
    std::vector<M2PCase> cases;
    for (std::size_t n = 0; n < tree.nodeCount(); ++n)
    {
        const auto& nd = tree.node(Octree<double>::Index(n));
        if (nd.count < 2) continue;
        Vec3<double> ext = nd.hi - nd.lo;
        double size = std::max({ext.x, ext.y, ext.z});
        Vec3<double> dir{rng.normal(), rng.normal(), rng.normal()};
        cases.push_back({&solver.nodeMultipole(Octree<double>::Index(n)),
                         rng.uniform(2.0, 4.0) * size * dir / norm(dir)});
    }
    caseCount = cases.size();

    std::vector<M2PPoint> points;
    for (auto order : {MultipoleOrder::Monopole, MultipoleOrder::Quadrupole,
                       MultipoleOrder::Octupole, MultipoleOrder::Hexadecapole})
    {
        M2PPoint p;
        p.order = order;
        for (const auto& c : cases)
        {
            Vec3<double> acc{}, accRef{};
            double pot = 0, potRef = 0;
            evaluateMultipole(*c.mp, c.s, order, acc, pot);
            oracle::evaluateMultipoleOracle(*c.mp, c.s, order, accRef, potRef);
            p.maxRelDiff = std::max({p.maxRelDiff, std::abs(pot - potRef) / std::abs(potRef),
                                     norm(acc - accRef) / norm(accRef)});
        }
        p.closedNs = timeM2P(cases, 0.1, [order](const auto& mp, const auto& s, auto& acc,
                                                  auto& pot) {
            evaluateMultipole(mp, s, order, acc, pot);
        }, sink);
        p.oracleNs = timeM2P(cases, 0.1, [order](const auto& mp, const auto& s, auto& acc,
                                                  auto& pot) {
            oracle::evaluateMultipoleOracle(mp, s, order, acc, pot);
        }, sink);
        std::fprintf(stderr, "M2P %-22s closed %9.1f ns  oracle %10.1f ns  (%.1fx)  max rel diff %.2e\n",
                     std::string(multipoleOrderName(order)).c_str(), p.closedNs, p.oracleNs,
                     p.oracleNs / p.closedNs, p.maxRelDiff);
        points.push_back(p);
    }
    return points;
}

struct AblationPoint
{
    MultipoleOrder order;
    double theta;
    double seconds;
    double rmsAccErr;
    std::size_t m2p, p2p;
};

std::vector<AblationPoint> benchAblation(const ParticleSetD& ps, const Octree<double>& tree,
                                         const ParticleSetD& ref)
{
    std::size_t n = ps.size();
    std::vector<AblationPoint> points;
    for (auto order : {MultipoleOrder::Monopole, MultipoleOrder::Quadrupole,
                       MultipoleOrder::Octupole, MultipoleOrder::Hexadecapole})
    {
        for (double theta : {0.8, 0.5, 0.3})
        {
            GravityParams<double> params;
            params.order = order;
            params.theta = theta;

            auto work = ps;
            GravitySolver<double> solver;
            solver.prepare(tree, work, params);

            Timer tt;
            GravityStats stats;
            solver.accumulate(work, &stats);
            double secs = tt.elapsed();

            double num = 0, den = 0;
            for (std::size_t i = 0; i < n; ++i)
            {
                double dx = work.ax[i] - ref.ax[i];
                double dy = work.ay[i] - ref.ay[i];
                double dz = work.az[i] - ref.az[i];
                num += dx * dx + dy * dy + dz * dz;
                den += ref.ax[i] * ref.ax[i] + ref.ay[i] * ref.ay[i] +
                       ref.az[i] * ref.az[i];
            }
            points.push_back({order, theta, secs, std::sqrt(num / den),
                              stats.m2pInteractions, stats.p2pInteractions});
        }
    }
    return points;
}

} // namespace

int main()
{
    const std::size_t n = bench::envSize("SPHEXA_GRAVITY_N", 8000);
    auto ps = plummerCluster(n);

    Box<double> box = computeBoundingBox<double>(ps.x, ps.y, ps.z);
    Octree<double> tree;
    Octree<double>::BuildParams bp;
    bp.leafSize = 16;
    tree.build(ps.x, ps.y, ps.z, box, bp);

    double sink          = 0;
    std::size_t m2pCases = 0;
    auto m2p             = benchM2P(tree, ps, m2pCases, sink);
    double gatedSpeedup  = m2p.back().oracleNs / m2p.back().closedNs;
    double worstRelDiff  = 0;
    for (const auto& p : m2p)
        worstRelDiff = std::max(worstRelDiff, p.maxRelDiff);

    // reference: direct sum
    auto ref = ps;
    GravityParams<double> pref;
    Timer t;
    GravitySolver<double>::directSum(ref, pref);
    double directSeconds = t.elapsed();
    auto ablation        = benchAblation(ps, tree, ref);

    std::fprintf(stderr, "\ndirect sum reference (N=%zu): %.3f s\n", n, directSeconds);
    std::fprintf(stderr, "%-22s %6s %12s %12s %14s %12s\n", "order", "theta", "seconds",
                 "speedup", "rms_acc_err", "interactions");
    for (const auto& a : ablation)
    {
        std::fprintf(stderr, "%-22s %6.2f %12.4f %12.1fx %14.2e %12zu\n",
                     std::string(multipoleOrderName(a.order)).c_str(), a.theta, a.seconds,
                     directSeconds / a.seconds, a.rmsAccErr, a.m2p + a.p2p);
    }

    std::printf("{\n  \"bench\": \"gravity\",\n");
    std::printf("  \"n\": %zu,\n  \"leaf_size\": %u,\n", n, unsigned(bp.leafSize));
    std::printf("  \"pool\": %zu,\n", parallelForWorkers());
    std::printf("  \"m2p_cases\": %zu,\n", m2pCases);
    std::printf("  \"min_speedup_gate\": %.2f,\n", kMinSpeedup);
    std::printf("  \"gated_speedup\": %.3f,\n", gatedSpeedup);
    std::printf("  \"parity_tolerance\": %.0e,\n", kParityTolerance);
    std::printf("  \"max_rel_diff\": %.3e,\n", worstRelDiff);
    std::printf("  \"m2p\": [\n");
    for (std::size_t i = 0; i < m2p.size(); ++i)
    {
        const auto& p = m2p[i];
        std::printf("    {\"order\": \"%s\", \"closed_ns\": %.2f, \"oracle_ns\": %.2f, "
                    "\"speedup\": %.2f, \"max_rel_diff\": %.3e}%s\n",
                    std::string(multipoleOrderName(p.order)).c_str(), p.closedNs, p.oracleNs,
                    p.oracleNs / p.closedNs, p.maxRelDiff, i + 1 == m2p.size() ? "" : ",");
    }
    std::printf("  ],\n  \"direct_sum_seconds\": %.6f,\n", directSeconds);
    std::printf("  \"ablation\": [\n");
    for (std::size_t i = 0; i < ablation.size(); ++i)
    {
        const auto& a = ablation[i];
        std::printf("    {\"order\": \"%s\", \"theta\": %.2f, \"seconds\": %.6f, "
                    "\"speedup_vs_direct\": %.1f, \"rms_acc_err\": %.3e, \"m2p\": %zu, "
                    "\"p2p\": %zu}%s\n",
                    std::string(multipoleOrderName(a.order)).c_str(), a.theta, a.seconds,
                    directSeconds / a.seconds, a.rmsAccErr, a.m2p, a.p2p,
                    i + 1 == ablation.size() ? "" : ",");
    }
    std::printf("  ]\n}\n");
    std::fprintf(stderr, "(checksum %.6e)\n", sink);

    if (!(worstRelDiff <= kParityTolerance))
    {
        std::fprintf(stderr, "FATAL: closed-form M2P differs from the oracle by %.3e relative "
                             "(tolerance %.0e)\n",
                     worstRelDiff, kParityTolerance);
        return 1;
    }
    if (!(gatedSpeedup >= kMinSpeedup))
    {
        std::fprintf(stderr, "FATAL: hexadecapole M2P speedup %.2fx below the %.2fx gate\n",
                     gatedSpeedup, kMinSpeedup);
        return 1;
    }
    return 0;
}
