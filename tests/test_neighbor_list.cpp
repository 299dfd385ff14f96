/// NeighborList container tests, centered on the flat-row accessor
/// (NeighborList::row) the backend kernels consume: one lookup returning
/// both the entry pointer and the count, aliasing the same storage as
/// neighbors(i), iterable, and stable across steady-state resets.
///
/// Plus the pair-symmetrization pass of phase D (symmetrizeNeighborList):
/// exact row equality with the serial oracle (symmetrize_oracle.hpp) on
/// random, lattice, periodic, mirror-ghost and overflowing sets at pools
/// {1,4} under all six strategies; a storage-permutation metamorphic test;
/// and the debug-build precondition check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "ic/dam_break.hpp"
#include "ic/evrard.hpp"
#include "ic/lattice.hpp"
#include "math/rng.hpp"
#include "sph/boundaries.hpp"
#include "smoothing_length_oracle.hpp"
#include "sph/smoothing_length.hpp"
#include "symmetrize_oracle.hpp"
#include "tree/neighbors.hpp"

using namespace sphexa;

namespace {

using Index = NeighborList<double>::Index;

/// Fill particle i with neighbors i+1 .. i+k (mod n), a recognizable ramp.
void fillRamp(NeighborList<double>& nl, std::size_t n, std::size_t k)
{
    std::vector<Index> buf;
    for (std::size_t i = 0; i < n; ++i)
    {
        buf.clear();
        for (std::size_t j = 1; j <= k; ++j)
            buf.push_back(Index((i + j) % n));
        nl.set(i, buf);
    }
}

} // namespace

TEST(NeighborListRow, MatchesNeighborsSpanExactly)
{
    const std::size_t n = 17;
    NeighborList<double> nl(n, 32);
    fillRamp(nl, n, 7);

    for (std::size_t i = 0; i < n; ++i)
    {
        auto row  = nl.row(i);
        auto span = nl.neighbors(i);
        ASSERT_EQ(row.count, span.size());
        ASSERT_EQ(row.size(), span.size());
        // same storage, not a copy: the pointer aliases the flat list
        EXPECT_EQ(row.data, span.data());
        for (std::size_t k = 0; k < span.size(); ++k)
            EXPECT_EQ(row.data[k], span[k]);
    }
}

TEST(NeighborListRow, IsIterableAndSpanConvertible)
{
    NeighborList<double> nl(4, 8);
    std::vector<Index> nbs{3, 1, 2};
    nl.set(0, nbs);

    auto row = nl.row(0);
    EXPECT_FALSE(row.empty());
    std::vector<Index> seen(row.begin(), row.end());
    EXPECT_EQ(seen, nbs);

    std::span<const Index> s = row.span();
    ASSERT_EQ(s.size(), nbs.size());
    EXPECT_TRUE(std::equal(s.begin(), s.end(), nbs.begin()));
}

TEST(NeighborListRow, EmptyRowHasZeroCount)
{
    NeighborList<double> nl(3, 8);
    // counts are zeroed by reset; no set() calls
    for (std::size_t i = 0; i < 3; ++i)
    {
        auto row = nl.row(i);
        EXPECT_EQ(row.count, 0u);
        EXPECT_TRUE(row.empty());
        EXPECT_EQ(row.begin(), row.end());
    }
}

TEST(NeighborListRow, RowsAreNgmaxStrided)
{
    const unsigned ngmax = 16;
    NeighborList<double> nl(5, ngmax);
    fillRamp(nl, 5, 3);
    for (std::size_t i = 1; i < 5; ++i)
    {
        EXPECT_EQ(nl.row(i).data, nl.row(0).data + i * ngmax);
    }
}

TEST(NeighborListRow, CountsCapAtNgmaxAndFlagOverflow)
{
    const unsigned ngmax = 4;
    NeighborList<double> nl(2, ngmax);
    std::vector<Index> many(10);
    std::iota(many.begin(), many.end(), Index(0));
    nl.set(0, many);

    auto row = nl.row(0);
    EXPECT_EQ(row.count, std::size_t(ngmax));
    EXPECT_EQ(nl.overflowCount(), 1u);
    for (unsigned k = 0; k < ngmax; ++k)
        EXPECT_EQ(row.data[k], many[k]);
}

TEST(NeighborListRow, AppendExtendsRowAndTruncatesLikeSet)
{
    const unsigned ngmax = 6;
    NeighborList<double> nl(2, ngmax);
    std::vector<Index> head{4, 2}, tail{9, 7, 5};
    nl.set(0, head);
    nl.append(0, tail);
    std::vector<Index> row0(nl.row(0).begin(), nl.row(0).end());
    EXPECT_EQ(row0, (std::vector<Index>{4, 2, 9, 7, 5}));
    EXPECT_EQ(nl.overflowCount(), 0u);

    // past capacity: keep the first ngmax entries, count one overflow
    nl.append(0, tail);
    std::vector<Index> full(nl.row(0).begin(), nl.row(0).end());
    EXPECT_EQ(full, (std::vector<Index>{4, 2, 9, 7, 5, 9}));
    EXPECT_EQ(nl.overflowCount(), 1u);
    nl.append(0, tail); // a full row stays full and overflows again
    EXPECT_EQ(nl.count(0), ngmax);
    EXPECT_EQ(nl.overflowCount(), 2u);
    EXPECT_EQ(nl.count(1), 0u);
}

TEST(NeighborListRow, StableAcrossSteadyStateReset)
{
    NeighborList<double> nl(8, 16);
    fillRamp(nl, 8, 5);
    const Index* before = nl.row(3).data;

    // same-shape reset reuses the high-water-mark allocation
    nl.reset(8, 16);
    EXPECT_EQ(nl.row(3).data, before);
    EXPECT_EQ(nl.row(3).count, 0u); // counts rezeroed

    fillRamp(nl, 8, 5);
    EXPECT_EQ(nl.row(3).count, 5u);
}

// --- phase D: pair symmetrization --------------------------------------------

namespace {

constexpr SchedulingStrategy kStrategies[] = {
    SchedulingStrategy::Static,    SchedulingStrategy::SelfScheduling,
    SchedulingStrategy::Guided,    SchedulingStrategy::Trapezoid,
    SchedulingStrategy::Factoring, SchedulingStrategy::AdaptiveWeightedFactoring};

struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

/// Uniform random cloud in \p box with smoothing lengths drawn from
/// [hLo, hHi], so that many pairs are one-sided; ids are the slots.
ParticleSetD randomCloud(std::size_t n, const Box<double>& box, double hLo, double hHi,
                         std::uint64_t seed)
{
    ParticleSetD ps;
    ps.resize(n);
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i]  = rng.uniform(box.lo.x, box.hi.x);
        ps.y[i]  = rng.uniform(box.lo.y, box.hi.y);
        ps.z[i]  = rng.uniform(box.lo.z, box.hi.z);
        ps.h[i]  = rng.uniform(hLo, hHi);
        ps.id[i] = i;
    }
    return ps;
}

/// Phase-B lists for the set's current x and h (global walk).
NeighborList<double> searchLists(const ParticleSetD& ps, const Box<double>& box,
                                 unsigned ngmax = 384)
{
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);
    NeighborList<double> nl(ps.size(), ngmax);
    findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nl);
    return nl;
}

/// Lists and h converged by the smoothing-length iteration (phases B + C),
/// as the pipeline hands them to phase D.
NeighborList<double> convergedLists(ParticleSetD& ps, const Box<double>& box,
                                    unsigned targetNeighbors)
{
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);
    NeighborList<double> nl(ps.size(), 384);
    SmoothingLengthParams<double> hp;
    hp.targetNeighbors = targetNeighbors;
    hp.tolerance       = 5;
    updateSmoothingLengths(ps, tree, nl, hp);
    return nl;
}

/// Same counts, same entries in the same order, same overflow tally.
void expectListsIdentical(const NeighborList<double>& a, const NeighborList<double>& b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.overflowCount(), b.overflowCount());
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        auto na = a.neighbors(i);
        auto nb = b.neighbors(i);
        ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << "row " << i;
    }
}

/// The gate: the parallel pass reproduces the oracle exactly, for pools
/// {1,4} under every scheduling strategy. Returns the number of entries
/// the oracle appended, so callers can insist the set exercises the pass.
std::size_t expectMatchesOracle(const ParticleSetD& ps, const Box<double>& box,
                                const NeighborList<double>& searched, bool withIds = true)
{
    std::span<const std::uint64_t> ids;
    if (withIds) ids = ps.id;
    NeighborList<double> ref = searched;
    oracle::symmetrizeNeighborListOracle(ref, ids);

    for (std::size_t pool : {1, 4})
    {
        PoolSizeGuard guard(pool);
        for (auto strategy : kStrategies)
        {
            SCOPED_TRACE(testing::Message() << "pool " << pool << ", strategy "
                                            << schedulingName(strategy));
            std::vector<double> awf(pool, 1.0);
            awf[0] = 2.5; // uneven AWF chunks
            LoopPolicy pol;
            pol.strategy = strategy;
            if (strategy == SchedulingStrategy::AdaptiveWeightedFactoring) pol.awfWeights = &awf;

            NeighborList<double> nl = searched;
            symmetrizeNeighborList(ps.x, ps.y, ps.z, ps.h, box, nl, ids, pol);
            expectListsIdentical(ref, nl);
        }
    }
    return ref.totalNeighbors() - searched.totalNeighbors();
}

} // namespace

TEST(NeighborSymmetrize, MatchesOracleOnRandomCloud)
{
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto ps = randomCloud(900, box, 0.04, 0.09, 3);
    auto nl = searchLists(ps, box);
    EXPECT_GT(expectMatchesOracle(ps, box, nl), 0u);
}

TEST(NeighborSymmetrize, MatchesOracleOnJitteredLattice)
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    cubicLattice(ps, 11, 11, 11, box);
    jitterPositions(ps, box, 1.0 / 11.0, 0.3, 17);
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps.h[i] = initialSmoothingLength(ps.size(), box, 50u);
    // the open box's faces leave particles short of neighbors, so the
    // h iteration spreads h and the lists become one-sided
    auto nl = convergedLists(ps, box, 50);
    EXPECT_GT(expectMatchesOracle(ps, box, nl), 0u);
}

TEST(NeighborSymmetrize, MatchesOracleOnPeriodicCloud)
{
    // supports reach across every face: minimum-image pairs on both sides
    Box<double> box{{-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5}, true, true, true};
    auto ps = randomCloud(900, box, 0.04, 0.1, 5);
    auto nl = searchLists(ps, box);
    EXPECT_GT(expectMatchesOracle(ps, box, nl), 0u);
}

TEST(NeighborSymmetrize, MatchesOracleOnDamBreakWithMirrorGhosts)
{
    ParticleSetD ps;
    DamBreakConfig<double> dcfg;
    dcfg.nx = 10;
    dcfg.ny = 20;
    dcfg.nz = 3;
    auto setup = makeDamBreak(ps, dcfg);
    auto cfg   = damBreakConfig(dcfg, setup);
    std::size_t nReal   = ps.size();
    std::size_t nGhosts = appendMirrorGhosts(ps, setup.box, cfg.boundaries);
    ASSERT_GT(nGhosts, 0u);
    // mirror ghosts copy their source's id: the slot tie-break is live
    std::set<std::uint64_t> distinct(ps.id.begin(), ps.id.end());
    ASSERT_EQ(distinct.size(), nReal);

    auto nl = convergedLists(ps, setup.box, 50);
    EXPECT_GT(expectMatchesOracle(ps, setup.box, nl), 0u);
}

TEST(NeighborSymmetrize, MatchesOracleWhenRowsOverflow)
{
    // dense cloud, small ngmax: search rows truncate at capacity (the
    // pass must scan those instead of trusting the predicate) and
    // appends push further rows past ngmax
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto ps = randomCloud(500, box, 0.08, 0.2, 9);
    auto nl = searchLists(ps, box, 24);
    ASSERT_GT(nl.overflowCount(), 0u);
    std::size_t below = 0;
    for (std::size_t i = 0; i < nl.size(); ++i)
        below += nl.count(i) < nl.ngmax();
    ASSERT_GT(below, 0u); // a mix of capacity and predicate rows
    EXPECT_GT(expectMatchesOracle(ps, box, nl), 0u);
}

TEST(NeighborSymmetrize, MatchesOracleWithoutIds)
{
    // ids that disagree with slot order: an empty ids span must order the
    // appended runs by slot, as the oracle does
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto ps = randomCloud(700, box, 0.05, 0.1, 13);
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps.id[i] = ps.size() - 1 - i;
    auto nl = searchLists(ps, box);
    EXPECT_GT(expectMatchesOracle(ps, box, nl, /*withIds*/ false), 0u);

    NeighborList<double> empty(0, 16);
    symmetrizeNeighborList(ps.x, ps.y, ps.z, ps.h, box, empty);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.overflowCount(), 0u);
}

TEST(NeighborSymmetrize, StoragePermutationPermutesRowsAndAppendedTails)
{
    // metamorphic: shuffle particle storage, search and symmetrize again;
    // un-permuted by id, every row holds the same neighbor set and the
    // same appended tail, entry for entry
    Box<double> box{{-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5}, true, true, true};
    auto ps = randomCloud(800, box, 0.04, 0.09, 21);

    std::vector<std::size_t> perm(ps.size());
    std::iota(perm.begin(), perm.end(), std::size_t(0));
    Xoshiro256pp rng(99);
    for (std::size_t k = perm.size(); k > 1; --k)
        std::swap(perm[k - 1], perm[rng.uniformInt(k)]);
    ParticleSetD shuffled = ps;
    shuffled.reorder(perm);

    PoolSizeGuard guard(4);
    struct Run
    {
        NeighborList<double> nl;
        std::vector<unsigned> searched; ///< row counts before phase D
    };
    auto run = [&box](const ParticleSetD& set) {
        Run r{searchLists(set, box), {}};
        for (std::size_t i = 0; i < set.size(); ++i)
            r.searched.push_back(r.nl.count(i));
        symmetrizeNeighborList(set.x, set.y, set.z, set.h, box, r.nl,
                               std::span<const std::uint64_t>(set.id));
        return r;
    };
    Run a = run(ps);
    Run b = run(shuffled);

    std::vector<std::size_t> slotOfId(ps.size());
    for (std::size_t k = 0; k < shuffled.size(); ++k)
        slotOfId[shuffled.id[k]] = k;

    std::size_t appended = 0;
    for (std::size_t id = 0; id < ps.size(); ++id)
    {
        std::size_t ia = id; // ps keeps identity ids
        std::size_t ib = slotOfId[id];
        auto rowA      = a.nl.neighbors(ia);
        auto rowB      = b.nl.neighbors(ib);
        ASSERT_EQ(rowA.size(), rowB.size()) << "id " << id;
        ASSERT_EQ(a.searched[ia], b.searched[ib]) << "id " << id;

        std::multiset<std::uint64_t> setA, setB;
        for (auto j : rowA)
            setA.insert(ps.id[j]);
        for (auto j : rowB)
            setB.insert(shuffled.id[j]);
        EXPECT_EQ(setA, setB) << "id " << id;

        std::vector<std::uint64_t> tailA, tailB;
        for (std::size_t k = a.searched[ia]; k < rowA.size(); ++k)
            tailA.push_back(ps.id[rowA[k]]);
        for (std::size_t k = b.searched[ib]; k < rowB.size(); ++k)
            tailB.push_back(shuffled.id[rowB[k]]);
        EXPECT_EQ(tailA, tailB) << "id " << id;
        appended += tailA.size();
    }
    EXPECT_GT(appended, 0u);
}

TEST(NeighborSymmetrizeDeathTest, ListsStaleForCurrentHFailInDebugBuilds)
{
#ifdef NDEBUG
    GTEST_SKIP() << "the precondition check is compiled into debug builds only";
#else
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    auto ps = randomCloud(300, box, 0.08, 0.12, 31);
    auto nl = searchLists(ps, box);
    // shrink h after the search: the lists no longer satisfy the forward
    // predicate, so the pass must refuse them rather than mis-symmetrize
    for (auto& hi : ps.h)
        hi *= 0.5;
    EXPECT_DEATH(symmetrizeNeighborList(ps.x, ps.y, ps.z, ps.h, box, nl),
                 "not built by the search");
#endif
}

// --- phase C: smoothing-length iteration -------------------------------------

namespace {

/// Jittered periodic unit-box lattice with every h = \p hOverDx lattice
/// spacings (h = 2dx is the set-up start: ~270 neighbors for a target of
/// 100).
ParticleSetD jitteredLattice(std::size_t side, double hOverDx, Box<double>& box)
{
    ParticleSetD ps;
    box = Box<double>{{0, 0, 0}, {1, 1, 1}, true, true, true};
    cubicLattice(ps, side, side, side, box);
    double dx = 1.0 / double(side);
    jitterPositions(ps, box, dx, 0.2, 77 + side);
    for (auto& h : ps.h)
        h = hOverDx * dx;
    return ps;
}

struct HRun
{
    SmoothingLengthResult shipped; ///< the shipped loop (last pool/strategy run)
    SmoothingLengthResult oracle;
    std::size_t overflow = 0; ///< the oracle's final overflow tally
};

/// The gate of the in-place shrink: from the same entry lists, the shipped
/// loop reproduces the re-walk-everything oracle bitwise — h, nc, the
/// iteration and unconverged counts, every row entry for entry and the
/// overflow tally — at pools {1,4} under every scheduling strategy, and its
/// re-walk count does not depend on the pool either. An empty \p subset
/// iterates all particles from the loop's own initial walk; otherwise the
/// entry lists are a global walk at the current h, as phase B leaves them.
HRun expectHMatchesOracle(const ParticleSetD& ps0, const Box<double>& box,
                          const SmoothingLengthParams<double>& hp, unsigned ngmax = 384,
                          std::span<const std::size_t> subset = {})
{
    Octree<double> tree;
    tree.build(ps0.x, ps0.y, ps0.z, box);
    NeighborList<double> entry(ps0.size(), ngmax);
    const bool reuse = !subset.empty();
    if (reuse) findNeighborsGlobal(tree, ps0.x, ps0.y, ps0.z, ps0.h, entry);

    HRun run;
    ParticleSetD ref = ps0;
    NeighborList<double> refNl = entry;
    run.oracle   = oracle::updateSmoothingLengthsOracle(ref, tree, refNl, hp, subset, reuse);
    run.overflow = refNl.overflowCount();

    std::size_t rewalked = 0;
    bool first = true;
    for (std::size_t pool : {1, 4})
    {
        PoolSizeGuard guard(pool);
        for (auto strategy : kStrategies)
        {
            SCOPED_TRACE(testing::Message() << "pool " << pool << ", strategy "
                                            << schedulingName(strategy));
            std::vector<double> awf(pool, 1.0);
            awf[0] = 2.5; // uneven AWF chunks
            LoopPolicy pol;
            pol.strategy = strategy;
            if (strategy == SchedulingStrategy::AdaptiveWeightedFactoring) pol.awfWeights = &awf;

            ParticleSetD ps = ps0;
            NeighborList<double> nl = entry;
            run.shipped = updateSmoothingLengths(ps, tree, nl, hp, subset, reuse, pol);
            EXPECT_EQ(run.shipped.iterations, run.oracle.iterations);
            EXPECT_EQ(run.shipped.unconverged, run.oracle.unconverged);
            EXPECT_TRUE(ps.h == ref.h) << "h differs from the oracle";
            EXPECT_TRUE(ps.nc == ref.nc) << "nc differs from the oracle";
            expectListsIdentical(nl, refNl);
            if (first) rewalked = run.shipped.rewalked;
            EXPECT_EQ(run.shipped.rewalked, rewalked);
            first = false;
        }
    }
    return run;
}

SmoothingLengthParams<double> hParams(unsigned maxIterations = 10)
{
    SmoothingLengthParams<double> hp;
    hp.targetNeighbors = 100;
    hp.tolerance       = 5;
    hp.maxIterations   = maxIterations;
    return hp;
}

} // namespace

TEST(SmoothingLengthIteration, MatchesOracleShrinkingFromTwoDxOnPeriodicLattice)
{
    Box<double> box;
    auto ps  = jitteredLattice(12, 2.0, box);
    auto run = expectHMatchesOracle(ps, box, hParams());
    EXPECT_GE(run.oracle.iterations, 2u);
    EXPECT_EQ(run.oracle.unconverged, 0u);
    // the point of the shrink path: almost every revisited row is compacted
    EXPECT_LT(run.shipped.rewalked * 10, run.oracle.rewalked);
}

TEST(SmoothingLengthIteration, MatchesOracleOnOpenEvrardSphereWhereSomeHGrow)
{
    ParticleSetD ps;
    EvrardConfig<double> ec;
    ec.nSide   = 16;
    auto setup = makeEvrard(ps, ec);
    auto run   = expectHMatchesOracle(ps, setup.box, hParams());
    EXPECT_GT(run.shipped.rewalked, 0u);
    EXPECT_LT(run.shipped.rewalked, run.oracle.rewalked);
}

TEST(SmoothingLengthIteration, MatchesOracleFromUndersizedH)
{
    Box<double> box;
    auto ps  = jitteredLattice(12, 0.3, box);
    auto run = expectHMatchesOracle(ps, box, hParams());
    // no row starts with a neighbor: every h grows on the first pass
    EXPECT_GE(run.shipped.rewalked, ps.size());
}

TEST(SmoothingLengthIteration, MatchesOracleWhenFullRowsMustReWalk)
{
    Box<double> box;
    auto ps  = jitteredLattice(10, 2.0, box);
    auto run = expectHMatchesOracle(ps, box, hParams(), /*ngmax*/ 128);
    // the initial walk truncates every row at ngmax, so none may be
    // compacted on the first pass
    EXPECT_GE(run.overflow, ps.size());
    EXPECT_GE(run.shipped.rewalked, ps.size());
}

TEST(SmoothingLengthIteration, RowsHeldAtMinHAreNotReWalked)
{
    // h clamped at minH keeps its support: the row is already the walk at
    // the "new" h, so it takes the shrink path, never a re-walk
    Box<double> box;
    auto ps = jitteredLattice(10, 2.0, box);
    auto hp = hParams(3);
    hp.minH = ps.h[0];
    auto run = expectHMatchesOracle(ps, box, hp);
    EXPECT_EQ(run.oracle.unconverged, ps.size());
    EXPECT_EQ(run.shipped.rewalked, 0u);
}

TEST(SmoothingLengthIteration, MatchesOracleOnSubset)
{
    Box<double> box;
    auto ps = jitteredLattice(12, 2.0, box);
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < ps.size(); i += 3)
        subset.push_back(i);
    auto run = expectHMatchesOracle(ps, box, hParams(), 384, subset);
    EXPECT_GE(run.oracle.iterations, 2u);
    EXPECT_LT(run.shipped.rewalked, run.oracle.rewalked);
}

TEST(SmoothingLengthIteration, IterationCapLeavesUnconvergedCounted)
{
    Box<double> box;
    auto ps  = jitteredLattice(12, 2.0, box);
    auto run = expectHMatchesOracle(ps, box, hParams(/*maxIterations*/ 1));
    EXPECT_EQ(run.shipped.iterations, 1u);
    EXPECT_GT(run.shipped.unconverged, 0u);
}
