#pragma once

/// \file symmetrize_oracle.hpp
/// The reference for symmetrizeNeighborList (tree/neighbors.hpp): the
/// original serial O(N·k²) pass. It decides "j lists i" by scanning j's row,
/// collects each row's missing entries in slot order, stable-sorts them by
/// particle id when ids are given and appends them with NeighborList::set.
/// Slow, obviously correct, and independent of the search predicate — the
/// oracle the parallel pass must match entry for entry.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "tree/neighbors.hpp"

namespace sphexa::oracle {

template<class T>
void symmetrizeNeighborListOracle(NeighborList<T>& nl, std::span<const std::uint64_t> ids = {})
{
    using Index = typename NeighborList<T>::Index;
    std::size_t n = nl.size();
    std::vector<std::vector<Index>> missing(n);

    for (std::size_t i = 0; i < n; ++i)
    {
        for (auto j : nl.neighbors(i))
        {
            auto njs = nl.neighbors(j);
            if (std::find(njs.begin(), njs.end(), Index(i)) == njs.end())
            {
                missing[j].push_back(Index(i));
            }
        }
    }

    std::vector<Index> merged;
    for (std::size_t i = 0; i < n; ++i)
    {
        if (missing[i].empty()) continue;
        if (!ids.empty())
        {
            std::stable_sort(missing[i].begin(), missing[i].end(),
                             [&](Index a, Index b) { return ids[a] < ids[b]; });
        }
        auto cur = nl.neighbors(i);
        merged.assign(cur.begin(), cur.end());
        merged.insert(merged.end(), missing[i].begin(), missing[i].end());
        nl.set(i, merged);
    }
}

} // namespace sphexa::oracle
