/// Gravity solver tests: multipole moments and field evaluation against
/// analytic results, the closed-form M2P against the generic tensor
/// contraction of tests/multipole_oracle.hpp, Barnes-Hut accuracy versus
/// direct summation as a function of opening angle and expansion order,
/// Newton's third law, and potential-energy consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "math/rng.hpp"
#include "multipole_oracle.hpp"
#include "sph/particles.hpp"
#include "tree/gravity.hpp"
#include "tree/multipole.hpp"
#include "tree/octree.hpp"

using namespace sphexa;
using sphexa::oracle::d4Tensor;
using sphexa::oracle::d5Tensor;

namespace {

/// Random Plummer-like cluster in a unit box around the center.
ParticleSet<double> randomCluster(std::size_t n, std::uint64_t seed)
{
    ParticleSet<double> ps(n);
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i] = 0.5 + 0.3 * rng.normal() * 0.2;
        ps.y[i] = 0.5 + 0.3 * rng.normal() * 0.2;
        ps.z[i] = 0.5 + 0.3 * rng.normal() * 0.2;
        ps.m[i] = 1.0 / double(n) * (0.5 + rng.uniform());
        ps.id[i] = i;
    }
    return ps;
}

/// RMS relative acceleration error of tree vs direct.
double rmsError(ParticleSet<double>& ps, const GravityParams<double>& params)
{
    std::size_t n = ps.size();
    ParticleSet<double> ref = ps;
    double refPot = GravitySolver<double>::directSum(ref, params);
    (void)refPot;

    Box<double> box = computeBoundingBox<double>(ps.x, ps.y, ps.z);
    Octree<double> tree;
    Octree<double>::BuildParams bp;
    bp.leafSize = 16;
    tree.build(ps.x, ps.y, ps.z, box, bp);

    GravitySolver<double> solver;
    solver.prepare(tree, ps, params);
    std::fill(ps.ax.begin(), ps.ax.end(), 0.0);
    std::fill(ps.ay.begin(), ps.ay.end(), 0.0);
    std::fill(ps.az.begin(), ps.az.end(), 0.0);
    solver.accumulate(ps);

    double num = 0, den = 0;
    for (std::size_t i = 0; i < n; ++i)
    {
        double dx = ps.ax[i] - ref.ax[i];
        double dy = ps.ay[i] - ref.ay[i];
        double dz = ps.az[i] - ref.az[i];
        num += dx * dx + dy * dy + dz * dz;
        den += ref.ax[i] * ref.ax[i] + ref.ay[i] * ref.ay[i] + ref.az[i] * ref.az[i];
    }
    return std::sqrt(num / den);
}

} // namespace

// --- multipole moments -------------------------------------------------------

TEST(Multipole, PointMassHasOnlyMonopole)
{
    std::vector<double> x{1.0}, y{2.0}, z{3.0}, m{5.0};
    std::vector<std::uint32_t> idx{0};
    auto mp = computeMultipole<double>(x, y, z, m, idx, MultipoleOrder::Hexadecapole);
    EXPECT_DOUBLE_EQ(mp.mass, 5.0);
    EXPECT_DOUBLE_EQ(mp.com.x, 1.0);
    for (double v : mp.q)
        EXPECT_DOUBLE_EQ(v, 0.0);
    for (double v : mp.o)
        EXPECT_DOUBLE_EQ(v, 0.0);
    for (double v : mp.hx)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Multipole, TwoBodyQuadrupoleKnownValue)
{
    // two unit masses at +-d on the x-axis: Q_xx = 2 m d^2, others 0.
    double d = 0.25;
    std::vector<double> x{-d, d}, y{0, 0}, z{0, 0}, m{1, 1};
    std::vector<std::uint32_t> idx{0, 1};
    auto mp = computeMultipole<double>(x, y, z, m, idx, MultipoleOrder::Quadrupole);
    EXPECT_DOUBLE_EQ(mp.mass, 2.0);
    EXPECT_NEAR(mp.com.x, 0.0, 1e-15);
    EXPECT_NEAR(oracle::q2(mp, 0, 0), 2 * d * d, 1e-15);
    EXPECT_NEAR(oracle::q2(mp, 1, 1), 0.0, 1e-15);
    EXPECT_NEAR(oracle::q2(mp, 0, 1), 0.0, 1e-15);
}

TEST(Multipole, FieldMatchesDirectForDistantCluster)
{
    // multipole field of a small cluster evaluated far away converges to the
    // exact field as order increases.
    Xoshiro256pp rng(5);
    std::size_t n = 50;
    std::vector<double> x, y, z, m;
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < n; ++i)
    {
        x.push_back(rng.uniform(-0.1, 0.1));
        y.push_back(rng.uniform(-0.1, 0.1));
        z.push_back(rng.uniform(-0.1, 0.1));
        m.push_back(rng.uniform(0.5, 1.5));
        idx.push_back(std::uint32_t(i));
    }

    Vec3<double> target{1.5, 0.3, -0.4};
    // exact
    Vec3<double> aExact{};
    double potExact = 0;
    for (std::size_t i = 0; i < n; ++i)
    {
        Vec3<double> dvec = target - Vec3<double>{x[i], y[i], z[i]};
        double r = norm(dvec);
        aExact -= m[i] / (r * r * r) * dvec;
        potExact -= m[i] / r;
    }

    double prevErr = 1e30;
    for (auto order : {MultipoleOrder::Monopole, MultipoleOrder::Quadrupole,
                       MultipoleOrder::Octupole, MultipoleOrder::Hexadecapole})
    {
        auto mp = computeMultipole<double>(x, y, z, m, idx, order);
        Vec3<double> acc{};
        double pot = 0;
        evaluateMultipole(mp, target - mp.com, order, acc, pot);
        double err = norm(acc - aExact) / norm(aExact);
        double potErr = std::abs(pot - potExact) / std::abs(potExact);
        EXPECT_LT(err, prevErr * 1.001) << multipoleOrderName(order);
        EXPECT_LT(potErr, 0.01);
        prevErr = err;
    }
    // hexadecapole should be very accurate at distance ~15x cluster size
    EXPECT_LT(prevErr, 1e-6);
}

TEST(Multipole, SymmetricIndexHelpers)
{
    using namespace sphexa::detail;
    // all rank-2 indices valid and symmetric
    std::set<int> s2;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
        {
            EXPECT_EQ(sym2Index(i, j), sym2Index(j, i));
            s2.insert(sym2Index(i, j));
        }
    EXPECT_EQ(s2.size(), 6u);

    std::set<int> s3;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
            {
                int v = sym3Index(i, j, k);
                EXPECT_EQ(v, sym3Index(k, j, i));
                EXPECT_EQ(v, sym3Index(j, i, k));
                s3.insert(v);
            }
    EXPECT_EQ(s3.size(), 10u);

    std::set<int> s4;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
                for (int l = 0; l < 3; ++l)
                {
                    int v = sym4Index(i, j, k, l);
                    EXPECT_EQ(v, sym4Index(l, k, j, i));
                    s4.insert(v);
                }
    EXPECT_EQ(s4.size(), 15u);
}

TEST(Multipole, DerivativeTensorsAreSymmetric)
{
    Vec3<double> s{0.7, -0.3, 0.5};
    double r2 = norm2(s);
    double inv9 = std::pow(r2, -4.5);
    double inv11 = std::pow(r2, -5.5);
    // D4 symmetric under index permutations
    EXPECT_NEAR(d4Tensor(s, r2, inv9, 0, 1, 2, 1), d4Tensor(s, r2, inv9, 1, 2, 1, 0), 1e-12);
    EXPECT_NEAR(d4Tensor(s, r2, inv9, 0, 0, 1, 2), d4Tensor(s, r2, inv9, 2, 1, 0, 0), 1e-12);
    // D5 symmetric
    EXPECT_NEAR(d5Tensor(s, r2, inv11, 0, 1, 2, 1, 0), d5Tensor(s, r2, inv11, 2, 1, 1, 0, 0),
                1e-12);
}

TEST(Multipole, D4IsGradientOfD3ViaFiniteDifference)
{
    // D4_ijkl = d/ds_i D3_jkl: check numerically using the octupole part of
    // evaluateMultipole indirectly — here directly on the tensor.
    Vec3<double> s{0.9, 0.2, -0.6};
    double eps = 1e-6;

    auto d3 = [](Vec3<double> sv, int j, int k, int l) {
        double r2 = norm2(sv);
        double r = std::sqrt(r2);
        double inv7 = 1.0 / (r2 * r2 * r2 * r);
        double t = 15 * sv[j] * sv[k] * sv[l];
        double dterm = 0;
        if (k == l) dterm += sv[j];
        if (j == l) dterm += sv[k];
        if (j == k) dterm += sv[l];
        return -(t - 3 * r2 * dterm) * inv7;
    };

    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
                for (int l = 0; l < 3; ++l)
                {
                    Vec3<double> sp = s, sm = s;
                    sp[i] += eps;
                    sm[i] -= eps;
                    double fd = (d3(sp, j, k, l) - d3(sm, j, k, l)) / (2 * eps);
                    double r2 = norm2(s);
                    double inv9 = std::pow(r2, -4.5);
                    EXPECT_NEAR(d4Tensor(s, r2, inv9, i, j, k, l), fd,
                                1e-4 * std::max(1.0, std::abs(fd)));
                }
}

TEST(Multipole, D5IsGradientOfD4ViaFiniteDifference)
{
    Vec3<double> s{0.8, -0.5, 0.4};
    double eps = 1e-6;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
            {
                // spot check a subset of (l, m)
                int l = (i + j) % 3, m = (j + k) % 3;
                Vec3<double> sp = s, sm = s;
                sp[i] += eps;
                sm[i] -= eps;
                auto d4at = [&](const Vec3<double>& sv) {
                    double r2 = norm2(sv);
                    return d4Tensor(sv, r2, std::pow(r2, -4.5), j, k, l, m);
                };
                double fd = (d4at(sp) - d4at(sm)) / (2 * eps);
                double r2 = norm2(s);
                EXPECT_NEAR(d5Tensor(s, r2, std::pow(r2, -5.5), i, j, k, l, m), fd,
                            1e-3 * std::max(1.0, std::abs(fd)));
            }
}

// --- closed-form M2P vs the generic contraction ------------------------------

namespace {

/// Unit directions for the M2P sweeps: the 26 axis, face-diagonal and
/// body-diagonal directions (s with exact zeros and equal components)
/// first, then random ones up to \p n.
std::vector<Vec3<double>> sweepDirections(std::size_t n, std::uint64_t seed)
{
    std::vector<Vec3<double>> dirs;
    for (int a = -1; a <= 1; ++a)
        for (int b = -1; b <= 1; ++b)
            for (int c = -1; c <= 1; ++c)
            {
                if (a == 0 && b == 0 && c == 0) continue;
                Vec3<double> v{double(a), double(b), double(c)};
                dirs.push_back(v / norm(v));
            }
    Xoshiro256pp rng(seed);
    while (dirs.size() < n)
    {
        Vec3<double> v{rng.normal(), rng.normal(), rng.normal()};
        dirs.push_back(v / norm(v));
    }
    return dirs;
}

/// Hexadecapole moments of a random 50-particle cluster in [-0.1, 0.1]^3,
/// flattened onto the z = 0 plane (\p dims = 2) or the x axis (\p dims = 1)
/// so that every moment entry with an index on a missing axis is exactly 0.
Multipole<double> clusterMoments(std::uint64_t seed, int dims)
{
    Xoshiro256pp rng(seed);
    std::vector<double> x, y, z, m;
    std::vector<std::uint32_t> idx;
    for (std::uint32_t i = 0; i < 50; ++i)
    {
        x.push_back(rng.uniform(-0.1, 0.1));
        y.push_back(dims >= 2 ? rng.uniform(-0.1, 0.1) : 0.0);
        z.push_back(dims >= 3 ? rng.uniform(-0.1, 0.1) : 0.0);
        m.push_back(rng.uniform(0.5, 1.5));
        idx.push_back(i);
    }
    return computeMultipole<double>(x, y, z, m, idx, MultipoleOrder::Hexadecapole);
}

/// Arbitrary symmetric moments (not those of any mass distribution) with
/// about a third of the unique entries exactly zero.
Multipole<double> syntheticMoments(std::uint64_t seed)
{
    Xoshiro256pp rng(seed);
    auto draw = [&] { return rng.uniform() < 1.0 / 3.0 ? 0.0 : rng.uniform(-1.0, 1.0); };
    Multipole<double> mp;
    mp.mass = rng.uniform(0.5, 1.5);
    for (auto& v : mp.q) v = draw();
    for (auto& v : mp.o) v = draw();
    for (auto& v : mp.hx) v = draw();
    return mp;
}

/// The order-n term alone: every other order's moments zeroed, so the
/// comparison is not drowned by the monopole.
Multipole<double> isolateOrder(Multipole<double> mp, MultipoleOrder order)
{
    if (order != MultipoleOrder::Monopole) mp.mass = 0;
    if (order != MultipoleOrder::Quadrupole) mp.q = {};
    if (order != MultipoleOrder::Octupole) mp.o = {};
    if (order != MultipoleOrder::Hexadecapole) mp.hx = {};
    return mp;
}

/// Tensor rank of the moment an order adds (0, 2, 3, 4: the dipole
/// vanishes about the center of mass).
int momentRank(MultipoleOrder order)
{
    return order == MultipoleOrder::Monopole ? 0 : int(order);
}

/// Largest |unique entry| of the order's moment.
double momentScale(const Multipole<double>& mp, MultipoleOrder order)
{
    auto maxAbs = [](const auto& a) {
        double v = 0;
        for (double e : a) v = std::max(v, std::abs(e));
        return v;
    };
    switch (order)
    {
        case MultipoleOrder::Monopole: return std::abs(mp.mass);
        case MultipoleOrder::Quadrupole: return maxAbs(mp.q);
        case MultipoleOrder::Octupole: return maxAbs(mp.o);
        case MultipoleOrder::Hexadecapole: return maxAbs(mp.hx);
    }
    return 0;
}

constexpr MultipoleOrder kOrders[] = {MultipoleOrder::Monopole, MultipoleOrder::Quadrupole,
                                      MultipoleOrder::Octupole, MultipoleOrder::Hexadecapole};

std::vector<Multipole<double>> parityMoments()
{
    return {clusterMoments(11, 3), clusterMoments(12, 2), clusterMoments(13, 1),
            syntheticMoments(14), syntheticMoments(15)};
}

} // namespace

TEST(MultipoleClosedForm, MatchesOracleAtEveryOrder)
{
    // each order's term alone, on 1e4 directions at 3x .. 20x the source
    // size, relative to the term's natural scale |M_n| / r^(n+1) (potential)
    // and |M_n| / r^(n+2) (acceleration) for a rank-n moment
    const double radii[] = {0.3, 0.8, 2.0};
    auto dirs = sweepDirections(10000, 21);
    for (const auto& full : parityMoments())
        for (auto order : kOrders)
        {
            auto mp = isolateOrder(full, order);
            double moment = momentScale(full, order);
            int n = momentRank(order);
            double worst = 0;
            for (std::size_t d = 0; d < dirs.size(); ++d)
            {
                double r = radii[d % 3];
                Vec3<double> s = r * dirs[d];
                Vec3<double> acc{}, accRef{};
                double pot = 0, potRef = 0;
                evaluateMultipole(mp, s, order, acc, pot);
                oracle::evaluateMultipoleOracle(mp, s, order, accRef, potRef);
                double potScale = std::abs(potRef) + moment / std::pow(r, n + 1);
                double accScale = norm(accRef) + moment / std::pow(r, n + 2);
                worst = std::max({worst, std::abs(pot - potRef) / potScale,
                                  norm(acc - accRef) / accScale});
            }
            EXPECT_LT(worst, 1e-12) << multipoleOrderName(order);
        }
}

TEST(MultipoleClosedForm, FullExpansionMatchesOracle)
{
    // all orders summed, as the tree walk evaluates them
    auto dirs = sweepDirections(2000, 22);
    for (const auto& mp : parityMoments())
        for (auto order : kOrders)
            for (std::size_t d = 0; d < dirs.size(); ++d)
            {
                Vec3<double> s = (0.3 + 0.5 * double(d % 4)) * dirs[d];
                Vec3<double> acc{}, accRef{};
                double pot = 0, potRef = 0;
                evaluateMultipole(mp, s, order, acc, pot);
                oracle::evaluateMultipoleOracle(mp, s, order, accRef, potRef);
                ASSERT_LT(std::abs(pot - potRef), 1e-12 * std::abs(potRef));
                ASSERT_LT(norm(acc - accRef), 1e-12 * norm(accRef));
            }
}

TEST(MultipoleClosedForm, AccelerationIsMinusGradientOfPotential)
{
    // central differences of the closed-form potential, per isolated order
    auto dirs = sweepDirections(200, 23);
    for (const auto& full : parityMoments())
        for (auto order : kOrders)
        {
            auto mp = isolateOrder(full, order);
            double moment = momentScale(full, order);
            int n = momentRank(order);
            auto potAt = [&](const Vec3<double>& s) {
                Vec3<double> a{};
                double p = 0;
                evaluateMultipole(mp, s, order, a, p);
                return p;
            };
            double worst = 0;
            for (std::size_t d = 0; d < dirs.size(); ++d)
            {
                double r = 0.5 + 0.5 * double(d % 3);
                Vec3<double> s = r * dirs[d];
                Vec3<double> acc{};
                double pot = 0;
                evaluateMultipole(mp, s, order, acc, pot);
                double h = 1e-5 * r;
                Vec3<double> fd{};
                for (int i = 0; i < 3; ++i)
                {
                    Vec3<double> sp = s, sm = s;
                    sp[i] += h;
                    sm[i] -= h;
                    fd[i] = -(potAt(sp) - potAt(sm)) / (2 * h);
                }
                worst = std::max(worst, norm(acc - fd) / (moment / std::pow(r, n + 2)));
            }
            EXPECT_LT(worst, 1e-7) << multipoleOrderName(order);
        }
}

// --- Barnes-Hut solver --------------------------------------------------------

TEST(GravitySolver, ErrorDecreasesWithTheta)
{
    auto ps = randomCluster(2000, 42);
    double prev = 1e30;
    for (double theta : {0.9, 0.6, 0.3})
    {
        GravityParams<double> params;
        params.theta = theta;
        params.order = MultipoleOrder::Quadrupole;
        auto psCopy = ps;
        double err = rmsError(psCopy, params);
        EXPECT_LT(err, prev * 1.05) << "theta=" << theta;
        prev = err;
    }
    EXPECT_LT(prev, 2e-3); // theta=0.3 quadrupole
}

class GravityOrderSweep : public ::testing::TestWithParam<MultipoleOrder>
{
};

TEST_P(GravityOrderSweep, AccuracyBound)
{
    auto ps = randomCluster(1500, 43);
    GravityParams<double> params;
    params.theta = 0.6;
    params.order = GetParam();
    double err = rmsError(ps, params);
    double bound = 0;
    switch (GetParam())
    {
        case MultipoleOrder::Monopole: bound = 5e-2; break;
        case MultipoleOrder::Quadrupole: bound = 1e-2; break;
        case MultipoleOrder::Octupole: bound = 5e-3; break;
        case MultipoleOrder::Hexadecapole: bound = 2e-3; break;
    }
    EXPECT_LT(err, bound) << multipoleOrderName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orders, GravityOrderSweep,
                         ::testing::Values(MultipoleOrder::Monopole,
                                           MultipoleOrder::Quadrupole,
                                           MultipoleOrder::Octupole,
                                           MultipoleOrder::Hexadecapole));

TEST(GravitySolver, HigherOrderIsMoreAccurate)
{
    auto ps = randomCluster(1500, 44);
    GravityParams<double> p;
    p.theta = 0.8;
    p.order = MultipoleOrder::Monopole;
    auto a = ps;
    double eMono = rmsError(a, p);
    p.order = MultipoleOrder::Quadrupole;
    auto b = ps;
    double eQuad = rmsError(b, p);
    p.order = MultipoleOrder::Hexadecapole;
    auto c = ps;
    double eHex = rmsError(c, p);
    EXPECT_LT(eQuad, eMono);
    EXPECT_LT(eHex, eQuad);
}

TEST(GravitySolver, MomentumConservedByDirectSum)
{
    auto ps = randomCluster(500, 45);
    GravityParams<double> params;
    GravitySolver<double>::directSum(ps, params);
    double fx = 0, fy = 0, fz = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        fx += ps.m[i] * ps.ax[i];
        fy += ps.m[i] * ps.ay[i];
        fz += ps.m[i] * ps.az[i];
    }
    EXPECT_NEAR(fx, 0.0, 1e-10);
    EXPECT_NEAR(fy, 0.0, 1e-10);
    EXPECT_NEAR(fz, 0.0, 1e-10);
}

TEST(GravitySolver, PotentialEnergyMatchesDirect)
{
    auto ps = randomCluster(1000, 46);
    GravityParams<double> params;
    params.theta = 0.4;
    params.order = MultipoleOrder::Quadrupole;

    auto ref = ps;
    double potDirect = GravitySolver<double>::directSum(ref, params);

    Box<double> box = computeBoundingBox<double>(ps.x, ps.y, ps.z);
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);
    GravitySolver<double> solver;
    solver.prepare(tree, ps, params);
    double potTree = solver.accumulate(ps);

    EXPECT_NEAR(potTree, potDirect, 2e-3 * std::abs(potDirect));
    EXPECT_LT(potDirect, 0.0);
}

TEST(GravitySolver, SofteningBoundsCloseForces)
{
    // two very close particles: softened force stays finite and below the
    // unsoftened point-mass force.
    ParticleSet<double> ps(2);
    ps.x = {0.0, 1e-8};
    ps.y = {0.0, 0.0};
    ps.z = {0.0, 0.0};
    ps.m = {1.0, 1.0};
    GravityParams<double> params;
    params.softening = 0.01;
    GravitySolver<double>::directSum(ps, params);
    double a = std::abs(ps.ax[0]);
    EXPECT_LT(a, 1.0 / (0.01 * 0.01)); // bounded by eps^-2
    EXPECT_GT(a, 0.0);
}

TEST(GravitySolver, TwoBodyAnalytic)
{
    ParticleSet<double> ps(2);
    ps.x = {0.0, 1.0};
    ps.y = {0.0, 0.0};
    ps.z = {0.0, 0.0};
    ps.m = {2.0, 3.0};
    GravityParams<double> params; // G = 1, no softening
    double pot = GravitySolver<double>::directSum(ps, params);
    EXPECT_NEAR(ps.ax[0], 3.0, 1e-14);    // toward +x, magnitude m2/r^2
    EXPECT_NEAR(ps.ax[1], -2.0, 1e-14);
    EXPECT_NEAR(pot, -6.0, 1e-14); // -m1 m2 / r
}

TEST(GravitySolver, StatsAreCounted)
{
    auto ps = randomCluster(2000, 47);
    GravityParams<double> params;
    params.theta = 0.6;
    Box<double> box = computeBoundingBox<double>(ps.x, ps.y, ps.z);
    Octree<double> tree;
    Octree<double>::BuildParams bp;
    bp.leafSize = 16; // a fine tree is required for Barnes-Hut to prune
    tree.build(ps.x, ps.y, ps.z, box, bp);
    GravitySolver<double> solver;
    solver.prepare(tree, ps, params);
    GravityStats stats;
    solver.accumulate(ps, &stats);
    EXPECT_GT(stats.p2pInteractions, 0u);
    EXPECT_GT(stats.m2pInteractions, 0u);
    // far fewer than N^2 direct interactions
    EXPECT_LT(stats.p2pInteractions + stats.m2pInteractions,
              ps.size() * ps.size() / 4);
}

TEST(GravitySolver, InteractionCountsArePinned)
{
    // the walk, the MAC and the leaf P2P sums decide these counts; the M2P
    // arithmetic must not move them (values of the hexadecapole walk on
    // this fixed cluster before the closed-form M2P)
    auto ps = randomCluster(2000, 47);
    Box<double> box = computeBoundingBox<double>(ps.x, ps.y, ps.z);
    Octree<double> tree;
    Octree<double>::BuildParams bp;
    bp.leafSize = 16;
    tree.build(ps.x, ps.y, ps.z, box, bp);
    const struct
    {
        double theta;
        std::size_t p2p, m2p;
    } pinned[] = {{0.6, 269399, 362271}, {0.3, 1315989, 567081}};
    for (const auto& c : pinned)
    {
        GravityParams<double> params;
        params.theta = c.theta;
        params.order = MultipoleOrder::Hexadecapole;
        GravitySolver<double> solver;
        solver.prepare(tree, ps, params);
        GravityStats stats;
        solver.accumulate(ps, &stats);
        EXPECT_EQ(stats.p2pInteractions, c.p2p) << "theta=" << c.theta;
        EXPECT_EQ(stats.m2pInteractions, c.m2p) << "theta=" << c.theta;
    }
}
