#pragma once

/// \file multipole_oracle.hpp
/// The reference for the multipole-to-particle (M2P) field evaluation of
/// src/tree/multipole.hpp: the generic symmetric-tensor contraction that
/// evaluateMultipole used before its octupole and hexadecapole parts became
/// closed forms. It contracts the raw moments against the derivative
/// tensors of 1/s (d4Tensor, d5Tensor) one index tuple at a time. Slow and
/// obviously correct: the oracle of tests/test_gravity.cpp and
/// bench/bench_gravity.cpp, never shipped in src/.

#include <cmath>

#include "math/vec.hpp"
#include "tree/multipole.hpp"

namespace sphexa::oracle {

/// Moment entries by full index tuple, from the unique-entry storage.
template<class T>
T q2(const Multipole<T>& mp, int i, int j)
{
    return mp.q[detail::sym2Index(i, j)];
}
template<class T>
T o3(const Multipole<T>& mp, int i, int j, int k)
{
    return mp.o[detail::sym3Index(i, j, k)];
}
template<class T>
T h4(const Multipole<T>& mp, int i, int j, int k, int l)
{
    return mp.hx[detail::sym4Index(i, j, k, l)];
}

template<class T>
T d4Tensor(const Vec3<T>& s, T r2, T inv9, int i, int j, int k, int l);
template<class T>
T d5Tensor(const Vec3<T>& s, T r2, T inv11, int i, int j, int k, int l, int m);

/// Gravitational field (acceleration and potential) of a multipole at
/// displacement s = r_target - com. G = 1 units; scale externally.
template<class T>
void evaluateMultipoleOracle(const Multipole<T>& mp, const Vec3<T>& s, MultipoleOrder order,
                             Vec3<T>& acc, T& pot)
{
    T r2   = norm2(s);
    T r    = std::sqrt(r2);
    T inv  = T(1) / r;
    T inv2 = inv * inv;
    T inv3 = inv2 * inv;
    T inv5 = inv3 * inv2;
    T inv7 = inv5 * inv2;

    // monopole
    pot -= mp.mass * inv;
    acc -= s * (mp.mass * inv3);
    if (order == MultipoleOrder::Monopole) return;

    // quadrupole, closed form with raw moments:
    //   phi_Q  = -(1/2) (3 sQs - r^2 trQ) / r^5
    //   acc_Q  = +(1/2) [ -15 sQs s / r^7 + 3 (trQ s + 2 Qs) / r^5 ]   (as -grad phi)
    {
        Vec3<T> Qs{q2(mp, 0, 0) * s.x + q2(mp, 0, 1) * s.y + q2(mp, 0, 2) * s.z,
                   q2(mp, 1, 0) * s.x + q2(mp, 1, 1) * s.y + q2(mp, 1, 2) * s.z,
                   q2(mp, 2, 0) * s.x + q2(mp, 2, 1) * s.y + q2(mp, 2, 2) * s.z};
        T sQs = dot(s, Qs);
        T trQ = q2(mp, 0, 0) + q2(mp, 1, 1) + q2(mp, 2, 2);
        pot -= T(0.5) * (T(3) * sQs - r2 * trQ) * inv5;
        acc += T(0.5) * (T(-15) * sQs * inv7 * s + T(3) * inv5 * (trQ * s + T(2) * Qs));
    }
    if (order == MultipoleOrder::Quadrupole) return;

    T inv9  = inv7 * inv2;
    T inv11 = inv9 * inv2;

    // octupole: phi_O = +(1/6) O_jkl D3_jkl ... with Taylor sign (-1)^3:
    // phi = -G sum_n ((-1)^n / n!) Moment_n . D_n; for n=3 the sign is -1/6.
    // D3_jkl = -(15 s_j s_k s_l - 3 r^2 (s_j d_kl + s_k d_jl + s_l d_jk)) / r^7
    {
        // contract O with D3 (potential) and with D4 (acceleration)
        T o_d3 = T(0);
        Vec3<T> o_d4{};
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
                for (int l = 0; l < 3; ++l)
                {
                    T ojkl = o3(mp, j, k, l);
                    if (ojkl == T(0)) continue;
                    // D3
                    T t = T(15) * s[j] * s[k] * s[l];
                    T dterm = T(0);
                    if (k == l) dterm += s[j];
                    if (j == l) dterm += s[k];
                    if (j == k) dterm += s[l];
                    T d3 = -(t - T(3) * r2 * dterm) * inv7;
                    o_d3 += ojkl * d3;
                    // D4_ijkl for each i
                    for (int i = 0; i < 3; ++i)
                    {
                        o_d4[i] += ojkl * d4Tensor(s, r2, inv9, i, j, k, l);
                    }
                }
        // phi += -G * (-1/6) O.D3  (with G=1 folded): pot -= (-1/6) o_d3
        pot += o_d3 / T(6);
        // acc_i = -d(phi)/ds_i = -(1/6) O.D4_i
        acc -= o_d4 / T(6);
    }
    if (order == MultipoleOrder::Octupole) return;

    // hexadecapole: n=4, sign +1/24
    {
        T h_d4 = T(0);
        Vec3<T> h_d5{};
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
                for (int l = 0; l < 3; ++l)
                    for (int mth = 0; mth < 3; ++mth)
                    {
                        T hj = h4(mp, j, k, l, mth);
                        if (hj == T(0)) continue;
                        h_d4 += hj * d4Tensor(s, r2, inv9, j, k, l, mth);
                        for (int i = 0; i < 3; ++i)
                        {
                            h_d5[i] += hj * d5Tensor(s, r2, inv11, i, j, k, l, mth);
                        }
                    }
        pot -= h_d4 / T(24);
        acc += h_d5 / T(24);
    }
}

/// Rank-4 derivative tensor of 1/s:
/// D4 = (105 ssss - 15 r^2 (ss d, 6 terms) + 3 r^4 (dd, 3 terms)) / r^9.
template<class T>
T d4Tensor(const Vec3<T>& s, T r2, T inv9, int i, int j, int k, int l)
{
    T t1 = T(105) * s[i] * s[j] * s[k] * s[l];
    T t2 = T(0);
    if (k == l) t2 += s[i] * s[j];
    if (j == l) t2 += s[i] * s[k];
    if (j == k) t2 += s[i] * s[l];
    if (i == l) t2 += s[j] * s[k];
    if (i == k) t2 += s[j] * s[l];
    if (i == j) t2 += s[k] * s[l];
    T t3 = T(0);
    if (i == j && k == l) t3 += T(1);
    if (i == k && j == l) t3 += T(1);
    if (i == l && j == k) t3 += T(1);
    return (t1 - T(15) * r2 * t2 + T(3) * r2 * r2 * t3) * inv9;
}

/// Rank-5 derivative tensor of 1/s:
/// D5 = -(945 sssss - 105 r^2 (sss d, 10 terms) + 15 r^4 (s dd, 15 terms)) / r^11.
template<class T>
T d5Tensor(const Vec3<T>& s, T r2, T inv11, int i, int j, int k, int l, int m)
{
    const int idx[5] = {i, j, k, l, m};
    T t1 = T(945) * s[i] * s[j] * s[k] * s[l] * s[m];

    // 10 terms: delta over one pair, s over remaining three
    T t2 = T(0);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
        {
            if (idx[a] != idx[b]) continue;
            T prod = T(1);
            for (int c = 0; c < 5; ++c)
            {
                if (c != a && c != b) prod *= s[idx[c]];
            }
            t2 += prod;
        }

    // 15 terms: two disjoint delta pairs, s over the remaining index
    T t3 = T(0);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
        {
            for (int c = a + 1; c < 5; ++c)
            {
                if (c == b) continue;
                for (int d = c + 1; d < 5; ++d)
                {
                    if (d == b) continue;
                    // pairs (a,b) and (c,d), a < b, c < d, a < c: each
                    // unordered pair-of-pairs counted once
                    if (idx[a] == idx[b] && idx[c] == idx[d])
                    {
                        int e = 0 + 1 + 2 + 3 + 4 - a - b - c - d;
                        t3 += s[idx[e]];
                    }
                }
            }
        }

    return -(t1 - T(105) * r2 * t2 + T(15) * r2 * r2 * t3) * inv11;
}

} // namespace sphexa::oracle
