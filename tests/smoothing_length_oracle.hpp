#pragma once

/// \file smoothing_length_oracle.hpp
/// The reference for updateSmoothingLengths (sph/smoothing_length.hpp): the
/// original h iteration, which re-walks the tree (findNeighborsIndividual)
/// for every non-converged particle on every pass. Slow and obviously
/// correct — each row is a fresh walk at the particle's current h by
/// construction — so the shipped loop, which shrinks rows in place and
/// re-walks only the rows that must grow, must match it bitwise: h, nc,
/// the result counters, every row entry for entry and the overflow tally.
/// Used by tests/test_neighbor_list.cpp and bench/bench_neighbors.cpp.

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

namespace sphexa::oracle {

template<class T>
SmoothingLengthResult
updateSmoothingLengthsOracle(ParticleSet<T>& ps, const Octree<T>& tree, NeighborList<T>& nl,
                             const SmoothingLengthParams<T>& params = {},
                             std::type_identity_t<std::span<const std::size_t>> subset = {},
                             bool reuseLists = false, const LoopPolicy& policy = {})
{
    std::size_t n = subset.empty() ? ps.size() : subset.size();
    auto target   = [&](std::size_t k) { return subset.empty() ? k : subset[k]; };
    if (subset.empty() && !reuseLists)
    {
        findNeighborsGlobal(tree, std::span<const T>(ps.x), std::span<const T>(ps.y),
                            std::span<const T>(ps.z), std::span<const T>(ps.h), nl);
    }

    SmoothingLengthResult res;
    std::vector<std::size_t> active;
    active.reserve(n);

    for (unsigned it = 0; it < params.maxIterations; ++it)
    {
        active.clear();
        for (std::size_t k = 0; k < n; ++k)
        {
            std::size_t i = target(k);
            unsigned c = nl.count(i);
            ps.nc[i]   = int(c);
            if (!neighborCountConverged(c, params.targetNeighbors, params.tolerance))
            {
                active.push_back(i);
            }
        }
        if (active.empty()) break;

        ++res.iterations;
        res.rewalked += active.size();
        parallelFor(
            active.size(),
            [&](std::size_t a, std::size_t) {
                std::size_t i = active[a];
                ps.h[i] = std::max(params.minH,
                                   updateH(ps.h[i], nl.count(i), params.targetNeighbors));
            },
            policy);

        findNeighborsIndividual(tree, std::span<const T>(ps.x), std::span<const T>(ps.y),
                                std::span<const T>(ps.z), std::span<const T>(ps.h), active,
                                nl);
    }

    for (std::size_t k = 0; k < n; ++k)
    {
        std::size_t i = target(k);
        unsigned c = nl.count(i);
        ps.nc[i]   = int(c);
        if (!neighborCountConverged(c, params.targetNeighbors, params.tolerance))
        {
            ++res.unconverged;
        }
    }
    return res;
}

} // namespace sphexa::oracle
