#pragma once

/// \file neighbors.hpp
/// Neighbor discovery (step 2 of Algorithm 1): tree walks over the octree.
///
/// Per Table 1/2 of the paper, both discovery modes are provided:
///  - Global tree walk (SPHYNX, SPH-flow): every particle searches each step.
///  - Individual tree walk (ChaNGa): only an active subset searches — the
///    mode used with individual (multi-) time-stepping.
///
/// Neighbor lists are stored flat with a fixed per-particle capacity
/// (ngmax), the layout used by the production SPH-EXA mini-app; overflow is
/// recorded rather than silently truncated.
///
/// The walks run through parallelFor (parallel/parallel_for.hpp) with
/// per-worker scratch buffers: iteration i writes only list slot i, so the
/// produced lists are bitwise identical for any pool size and strategy.
///
/// Every search, and the pair symmetrization of phase D, decides "j is a
/// neighbor of i" through the one predicate KernelSupport below; the list
/// filters (the cluster member scan, the in-place row shrink of phase C)
/// also share one d2 arithmetic, filterWithinSupport.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/simd_tile.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// The neighbor predicate: j is a neighbor of i iff the minimum-image
/// squared distance d2 = |x_i - x_j|^2 lies inside i's kernel support,
/// d2 < (2 h_i)^2. Built once per particle so candidate loops test against a
/// hoisted bound; r2 doubles as the octree's node-pruning bound.
template<class T>
struct KernelSupport
{
    T r2; ///< (2h)^2

    explicit KernelSupport(T h)
        : r2((T(2) * h) * (T(2) * h))
    {
    }

    bool contains(T d2) const { return d2 < r2; }
};

/// The one d2 arithmetic and compaction of the list filters: keep, in
/// order, the candidates cand[0..nCand) inside \p support around \p xi,
/// except \p self, writing them to \p out (which may alias cand); returns
/// how many were kept. Candidate k's coordinates are (cx, cy, cz)[at(k)].
///
/// Two branch-free passes. Pass 1 computes every minimum-image squared
/// distance: the wrap selects pick among the identical FP values
/// Box::delta's branches would produce, and the sum keeps norm2's
/// left-to-right association, so d2 is bitwise the value the tree walk
/// (Octree::forEachNeighbor) compares. Pass 2 is an ordered compaction
/// (write always, advance on accept) with the walk's predicate, so kept
/// candidates stay in candidate order with no data-dependent branch.
/// \p d2 is scratch for nCand values.
template<class T, class Index, class At>
std::size_t filterWithinSupport(const Vec3<T>& xi, const KernelSupport<T>& support, Index self,
                                const backend::PeriodicWrap<T>& wrap, const T* cx,
                                const T* cy, const T* cz, At at, const Index* cand,
                                std::size_t nCand, T* d2, Index* out)
{
    for (std::size_t k = 0; k < nCand; ++k)
    {
        std::size_t j = at(k);
        T dx  = wrap.x(xi.x - cx[j]);
        T dy  = wrap.y(xi.y - cy[j]);
        T dz  = wrap.z(xi.z - cz[j]);
        d2[k] = dx * dx + dy * dy + dz * dz;
    }
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < nCand; ++k)
    {
        out[cnt] = cand[k];
        cnt += std::size_t(support.contains(d2[k]) & (cand[k] != self));
    }
    return cnt;
}

/// Flat fixed-capacity neighbor lists.
template<class T>
class NeighborList
{
public:
    using Index = typename Octree<T>::Index;

    explicit NeighborList(std::size_t n = 0, unsigned ngmax = 256) { reset(n, ngmax); }

    /// Size the lists for \p n particles and zero the counts. The entry
    /// storage only ever GROWS: steady-state resets (every step, plus the
    /// WCSPH ghost bracket growing and shrinking the set within a step)
    /// reuse the high-water-mark allocation instead of reassigning
    /// n*ngmax entries — entries are never read past their count, so
    /// stale storage needs no zeroing (bench_neighbors asserts the
    /// no-churn property).
    void reset(std::size_t n, unsigned ngmax)
    {
        n_     = n;
        ngmax_ = ngmax;
        if (list_.size() < n * std::size_t(ngmax)) list_.resize(n * std::size_t(ngmax));
        count_.assign(n, 0);
        overflow_ = 0;
    }

    /// Zero the overflow counter only (start of each search pass); keeps
    /// lists and counts, unlike reset().
    void resetOverflow() { overflow_ = 0; }

    /// Allocated entry storage, in entries (high-water mark across resets).
    std::size_t entryCapacity() const { return list_.capacity(); }
    /// Address of the entry storage (stable across steady-state resets).
    const Index* entryData() const { return list_.data(); }

    unsigned ngmax() const { return ngmax_; }
    std::size_t size() const { return n_; }

    /// Number of neighbors found for particle i (capped at ngmax).
    unsigned count(std::size_t i) const { return count_[i]; }

    /// Neighbor indices of particle i.
    std::span<const Index> neighbors(std::size_t i) const
    {
        return {list_.data() + i * ngmax_, count_[i]};
    }

    /// One particle's neighbor row — entry pointer and count from a single
    /// lookup, the flat contiguous form the backend kernels consume
    /// (src/backend/*_kernel.hpp). Iterable like neighbors(i).
    struct Row
    {
        const Index* data;
        std::size_t  count;

        std::span<const Index> span() const { return {data, count}; }
        const Index* begin() const { return data; }
        const Index* end() const { return data + count; }
        std::size_t size() const { return count; }
        bool empty() const { return count == 0; }
    };

    /// Row accessor: both the entries and the count of particle i in one call.
    Row row(std::size_t i) const { return {list_.data() + i * ngmax_, count_[i]}; }

    /// Number of particles whose neighborhood exceeded ngmax in the last fill.
    std::size_t overflowCount() const { return overflow_; }

    /// Total number of neighbor entries (interaction count proxy).
    std::size_t totalNeighbors() const
    {
        std::size_t s = 0;
        for (auto c : count_)
            s += c;
        return s;
    }

    /// Replace particle i's neighbors with \p nbs (truncated at ngmax).
    void set(std::size_t i, std::span<const Index> nbs)
    {
        count_[i] = 0;
        append(i, nbs);
    }

    /// Append \p nbs to particle i's neighbors, truncated at ngmax; a call
    /// that truncates counts one overflow.
    void append(std::size_t i, std::span<const Index> nbs)
    {
        std::size_t have  = count_[i];
        std::size_t total = have + nbs.size();
        std::size_t c     = std::min<std::size_t>(total, ngmax_);
        std::copy(nbs.begin(), nbs.begin() + std::ptrdiff_t(c - have),
                  list_.begin() + std::ptrdiff_t(i * ngmax_ + have));
        count_[i] = unsigned(c);
        if (total > ngmax_)
        {
            // set()/append() run concurrently for distinct i from
            // parallelFor workers; atomic_ref makes the shared overflow
            // tally atomic while keeping the member a plain (copyable)
            // size_t.
            std::atomic_ref<std::size_t>(overflow_).fetch_add(1, std::memory_order_relaxed);
        }
    }

    /// Shrink particle i's row in place to its entries inside \p support,
    /// in order. When the row is an untruncated walk at a radius no smaller
    /// than support's, the result is the list a fresh walk at support
    /// returns, in its traversal order: the smaller radius only prunes
    /// subtrees whose points it would reject anyway (the point-box bound
    /// never exceeds a member's d2 under monotone rounding), and the kept
    /// points pass the walk's own predicate on the walk's own d2. x, y, z
    /// are the arrays the walk read; \p d2 is scratch for count(i) values.
    void shrinkRow(std::size_t i, const KernelSupport<T>& support,
                   const backend::PeriodicWrap<T>& wrap, std::span<const T> x,
                   std::span<const T> y, std::span<const T> z, T* d2)
    {
        Index* row = list_.data() + i * ngmax_;
        count_[i]  = unsigned(filterWithinSupport(
            Vec3<T>{x[i], y[i], z[i]}, support, Index(i), wrap, x.data(), y.data(), z.data(),
            [row](std::size_t k) { return std::size_t(row[k]); }, row, count_[i], d2, row));
    }

private:
    std::size_t n_{0};
    unsigned    ngmax_{256};
    std::vector<Index>    list_;
    std::vector<unsigned> count_;
    std::size_t           overflow_{0};
};

/// Fill neighbor lists for all particles ("global tree walk").
///
/// The search radius of particle i is 2 h_i (kernel support). Self is
/// excluded from the list; SPH sums add the self contribution analytically.
template<class T>
void findNeighborsGlobal(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                         std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h, NeighborList<T>& nl,
                         const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    for (auto& s : scratch)
        s.reserve(nl.ngmax());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pos{x[i], y[i], z[i]};
        tree.forEachNeighbor(pos, KernelSupport<T>(h[i]), [&](Index j, T) {
            if (j != Index(i)) local.push_back(j);
        });
        nl.set(i, local);
    }, policy);
}

/// Fill neighbor lists only for the \p active particles ("individual tree
/// walk", ChaNGa-style): the inactive entries keep their previous lists.
/// This is the phase-B search of every subset walk — the binned-integration
/// pipeline (PipelineFactory::individual, where \p active is the time-step
/// controller's force set) and the distributed driver's per-rank walk — and
/// the re-walk of phase C's h iteration, which calls it only for the rows
/// whose h grows or whose row is full (the others shrink in place,
/// NeighborList::shrinkRow). No ClusterList counterpart exists: clusters
/// are runs of consecutive SFC-sorted slots and an active bin scatters
/// across them, so the per-particle walk remains the subset path (open item
/// in the ROADMAP).
template<class T>
void findNeighborsIndividual(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                             std::type_identity_t<std::span<const T>> y, std::type_identity_t<std::span<const T>> z,
                             std::type_identity_t<std::span<const T>> h, std::type_identity_t<std::span<const std::size_t>> active,
                             NeighborList<T>& nl, const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    for (auto& s : scratch)
        s.reserve(nl.ngmax());
    parallelFor(active.size(), [&](std::size_t a, std::size_t w) {
        std::size_t i = active[a];
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pos{x[i], y[i], z[i]};
        tree.forEachNeighbor(pos, KernelSupport<T>(h[i]), [&](Index j, T) {
            if (j != Index(i)) local.push_back(j);
        });
        nl.set(i, local);
    }, policy);
}

/// Brute-force O(N^2) reference used by tests and the neighbor ablation.
template<class T>
void findNeighborsBruteForce(std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                             std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h, const Box<T>& box,
                             NeighborList<T>& nl)
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pi{x[i], y[i], z[i]};
        const KernelSupport<T> support(h[i]);
        for (std::size_t j = 0; j < n; ++j)
        {
            if (j == i) continue;
            Vec3<T> d = box.delta(pi, Vec3<T>{x[j], y[j], z[j]});
            if (support.contains(norm2(d))) local.push_back(Index(j));
        }
        nl.set(i, local);
    });
}

/// Make neighbor lists pair-symmetric (phase D): if i lists j, j lists i,
/// as exact momentum conservation needs when smoothing lengths differ.
///
/// Precondition: nl holds, for every particle in [0, nl.size()), the list a
/// global search built over \p box for the current x, y, z and h. Then j
/// lists i iff KernelSupport(h_j).contains(d2) — minimum-image deltas are
/// exactly antisymmetric, so d2 from i's side is the value j's search
/// compared — except that a row at capacity (count == ngmax) may have been
/// truncated and is scanned instead. Debug builds assert the forward
/// predicate for every pair visited, so other lists fail loudly.
///
/// Stage 1 (read-only) finds each missing pair (j, i) and gathers them into
/// one run per row j. Stage 2 sorts each run by (ids[i], i) — by i when
/// \p ids is empty — and appends it with NeighborList::append, which
/// truncates and counts overflow as set() does. The key makes the appended tail a function of the
/// pair set alone: bitwise invariant under pool size, strategy and, given
/// ids, storage permutation; the slot tie-break orders the ids WCSPH mirror
/// ghosts share with their source.
template<class T>
void symmetrizeNeighborList(std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                            std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h,
                            const Box<T>& box, NeighborList<T>& nl, std::span<const std::uint64_t> ids = {},
                            const LoopPolicy& policy = {})
{
    using Index = typename NeighborList<T>::Index;
    const std::size_t n = nl.size();
    assert(x.size() >= n && y.size() >= n && z.size() >= n && h.size() >= n);
    assert(ids.empty() || ids.size() >= n);

    // stage 1 (read-only): emit(j) for every entry j of row i whose reverse
    // entry is missing
    auto scanRow = [&](std::size_t i, auto&& emit) {
        const Vec3<T> xi{x[i], y[i], z[i]};
        [[maybe_unused]] const KernelSupport<T> own(h[i]);
        for (Index j : nl.neighbors(i))
        {
            T d2 = norm2(box.delta(Vec3<T>{x[j], y[j], z[j]}, xi));
            assert(own.contains(d2) && "lists not built by the search for the current x, h");
            // a row at capacity may have been truncated: scan it instead
            auto rowJ   = nl.neighbors(j);
            bool listed = rowJ.size() < nl.ngmax()
                              ? KernelSupport<T>(h[j]).contains(d2)
                              : std::find(rowJ.begin(), rowJ.end(), Index(i)) != rowJ.end();
            if (!listed) emit(j);
        }
    };

    // Two sweeps — count the missing entries per row, then place each in
    // its row's run — instead of buffering the pairs, whose buffers would
    // raise the step's peak memory. The placing sweep revisits only the
    // rows that emitted (about 40% of them on a Sedov blast).
    std::vector<unsigned>      missing(n, 0);
    std::vector<unsigned char> emits(n, 0);
    parallelFor(n, [&](std::size_t i, std::size_t) {
        scanRow(i, [&](Index j) {
            emits[i] = 1;
            std::atomic_ref<unsigned>(missing[j]).fetch_add(1, std::memory_order_relaxed);
        });
    }, policy);
    std::vector<std::size_t> offset(n + 1, 0);
    std::inclusive_scan(missing.begin(), missing.end(), offset.begin() + 1, std::plus<>(),
                        std::size_t(0));
    if (offset[n] == 0) return;
    std::vector<Index> runs(offset[n]);
    parallelFor(n, [&](std::size_t i, std::size_t) {
        if (!emits[i]) return;
        scanRow(i, [&](Index j) {
            unsigned left = std::atomic_ref<unsigned>(missing[j]).fetch_sub(1, std::memory_order_relaxed);
            runs[offset[j] + left - 1] = Index(i);
        });
    }, policy);

    // stage 2: order each run by key (worker timing placed its entries) and
    // append it
    parallelFor(n, [&](std::size_t j, std::size_t) {
        Index* first = runs.data() + offset[j];
        Index* last  = runs.data() + offset[j + 1];
        if (first == last) return;
        std::sort(first, last, [&](Index a, Index b) {
            if (!ids.empty() && ids[a] != ids[b]) return ids[a] < ids[b];
            return a < b;
        });
        nl.append(j, std::span<const Index>(first, last));
    }, policy);
}

} // namespace sphexa
