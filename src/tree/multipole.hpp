#pragma once

/// \file multipole.hpp
/// Cartesian multipole moments of octree nodes, up to hexadecapole order —
/// the "Multipoles (16-pole)" self-gravity of Table 2 (ChaNGa uses 16-pole,
/// SPHYNX 4-pole; both orders are supported and selected per code profile).
///
/// Moments are raw (non-traceless) Cartesian tensors about the node's center
/// of mass (so the dipole vanishes identically):
///     M        = sum m_b
///     Q_ij     = sum m_b d_i d_j
///     O_ijk    = sum m_b d_i d_j d_k
///     H_ijkl   = sum m_b d_i d_j d_k d_l,     d = r_b - R_com.
/// Raw moments are valid because the trace parts act through the harmonic
/// Laplacian of 1/r and vanish away from the source.
///
/// Field evaluation (M2P) contracts the moments with the derivative tensors
/// of 1/s (ranks 1-5) in closed form at every order: a handful of scalar
/// and vector contractions of the stored unique entries with s, with no
/// index-tuple loops and no branches on the moments. The generic per-tuple
/// contraction it replaced is the test oracle (tests/multipole_oracle.hpp).

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>

#include "math/vec.hpp"

namespace sphexa {

/// Expansion order selector, named by the paper's N-pole convention.
enum class MultipoleOrder
{
    Monopole = 1,     ///< 2-pole: mass only
    Quadrupole = 2,   ///< 4-pole (SPHYNX)
    Octupole = 3,     ///< 8-pole
    Hexadecapole = 4, ///< 16-pole (ChaNGa)
};

constexpr std::string_view multipoleOrderName(MultipoleOrder o)
{
    switch (o)
    {
        case MultipoleOrder::Monopole: return "Multipoles (2-pole)";
        case MultipoleOrder::Quadrupole: return "Multipoles (4-pole)";
        case MultipoleOrder::Octupole: return "Multipoles (8-pole)";
        case MultipoleOrder::Hexadecapole: return "Multipoles (16-pole)";
    }
    return "?";
}

namespace detail {

/// Symmetric rank-2 storage index for sorted (i <= j).
constexpr int sym2Index(int i, int j)
{
    // (0,0) (0,1) (0,2) (1,1) (1,2) (2,2) -> 0..5
    if (i > j) { int t = i; i = j; j = t; }
    constexpr int base[3] = {0, 3, 5};
    return base[i] + (j - i);
}

/// Symmetric rank-3 storage index: 10 entries for sorted (i <= j <= k).
constexpr int sym3Index(int i, int j, int k)
{
    int a = i, b = j, c = k;
    if (a > b) { int t = a; a = b; b = t; }
    if (b > c) { int t = b; b = c; c = t; }
    if (a > b) { int t = a; a = b; b = t; }
    // enumerate sorted triples over {0,1,2}:
    // (000)(001)(002)(011)(012)(022)(111)(112)(122)(222)
    if (a == 0)
    {
        if (b == 0) return c;          // 000,001,002 -> 0,1,2
        if (b == 1) return 2 + c;      // 011->3, 012->4
        return 5;                      // 022
    }
    if (a == 1)
    {
        if (b == 1) return 5 + c;      // 111->6, 112->7
        return 8;                      // 122
    }
    return 9;                          // 222
}

/// Symmetric rank-4 storage index: 15 entries for sorted (i<=j<=k<=l).
constexpr int sym4Index(int i, int j, int k, int l)
{
    int v[4] = {i, j, k, l};
    // tiny insertion sort
    for (int a = 1; a < 4; ++a)
    {
        int key = v[a], b = a - 1;
        while (b >= 0 && v[b] > key)
        {
            v[b + 1] = v[b];
            --b;
        }
        v[b + 1] = key;
    }
    // enumerate the 15 sorted quadruples over {0,1,2}:
    // 0000 0001 0002 0011 0012 0022 0111 0112 0122 0222 1111 1112 1122 1222 2222
    int a = v[0], b = v[1], c = v[2], d = v[3];
    if (a == 0)
    {
        if (b == 0)
        {
            if (c == 0) return d;              // 0000..0002 -> 0..2
            if (c == 1) return 2 + d;          // 0011->3 0012->4
            return 5;                          // 0022
        }
        if (b == 1)
        {
            if (c == 1) return 5 + d;          // 0111->6 0112->7
            return 8;                          // 0122
        }
        return 9;                              // 0222
    }
    if (a == 1)
    {
        if (b == 1)
        {
            if (c == 1) return 9 + d;          // 1111->10 1112->11
            return 12;                         // 1122
        }
        return 13;                             // 1222
    }
    return 14;                                 // 2222
}

} // namespace detail

/// Multipole moments of a mass distribution about its center of mass.
template<class T>
struct Multipole
{
    T mass{};
    Vec3<T> com{};
    std::array<T, 6>  q{};  ///< rank-2 raw moments
    std::array<T, 10> o{};  ///< rank-3 raw moments
    std::array<T, 15> hx{}; ///< rank-4 raw moments
};

/// Particle-to-multipole: accumulate moments of the given particles about
/// their center of mass, up to \p order.
template<class T>
Multipole<T> computeMultipole(std::span<const T> x, std::span<const T> y,
                              std::span<const T> z, std::span<const T> m,
                              std::span<const std::uint32_t> indices, MultipoleOrder order)
{
    Multipole<T> mp;
    for (auto j : indices)
    {
        mp.mass += m[j];
        mp.com += m[j] * Vec3<T>{x[j], y[j], z[j]};
    }
    if (mp.mass > T(0)) mp.com /= mp.mass;
    if (order == MultipoleOrder::Monopole) return mp;

    for (auto j : indices)
    {
        Vec3<T> d = Vec3<T>{x[j], y[j], z[j]} - mp.com;
        T mb = m[j];
        for (int a = 0; a < 3; ++a)
            for (int b = a; b < 3; ++b)
                mp.q[detail::sym2Index(a, b)] += mb * d[a] * d[b];

        if (order >= MultipoleOrder::Octupole)
        {
            for (int a = 0; a < 3; ++a)
                for (int b = a; b < 3; ++b)
                    for (int c = b; c < 3; ++c)
                        mp.o[detail::sym3Index(a, b, c)] += mb * d[a] * d[b] * d[c];
        }
        if (order >= MultipoleOrder::Hexadecapole)
        {
            for (int a = 0; a < 3; ++a)
                for (int b = a; b < 3; ++b)
                    for (int c = b; c < 3; ++c)
                        for (int e = c; e < 3; ++e)
                            mp.hx[detail::sym4Index(a, b, c, e)] +=
                                mb * d[a] * d[b] * d[c] * d[e];
        }
    }
    return mp;
}

namespace detail {

/// a_jk s_j s_k of a symmetric rank-2 tensor, from its 6 unique entries in
/// sym2Index order (00 01 02 11 12 22) weighted by their multiplicities.
template<class T>
T quadraticForm(T a00, T a01, T a02, T a11, T a12, T a22, const Vec3<T>& s)
{
    return a00 * s.x * s.x + a11 * s.y * s.y + a22 * s.z * s.z +
           T(2) * (a01 * s.x * s.y + a02 * s.x * s.z + a12 * s.y * s.z);
}

/// a_jkl s_j s_k s_l of a symmetric rank-3 tensor, from its 10 unique
/// entries in sym3Index order (000 001 002 011 012 022 111 112 122 222)
/// weighted by their multiplicities (1, 3 or 6).
template<class T>
T cubicForm(T a000, T a001, T a002, T a011, T a012, T a022, T a111, T a112, T a122, T a222,
            const Vec3<T>& s)
{
    T x = s.x, y = s.y, z = s.z;
    return a000 * x * x * x + a111 * y * y * y + a222 * z * z * z +
           T(3) * (a001 * x * x * y + a002 * x * x * z + a011 * x * y * y + a022 * x * z * z +
                   a112 * y * y * z + a122 * y * z * z) +
           T(6) * a012 * x * y * z;
}

} // namespace detail

/// Gravitational field (acceleration and potential) of a multipole at
/// displacement s = r_target - com. G = 1 units; scale externally.
///
/// Order n adds phi_n = -((-1)^n / n!) M_n . D_n, with D_n = grad^n (1/s)
/// and acc_n = -grad phi_n. Each order is a closed form in a few scalars
/// and vectors of the raw moments contracted with s:
///     quadrupole     Qs_i   = Q_ij s_j,             trQ = Q_kk
///     octupole       Oss_i  = O_ijk s_j s_k,        t_j = O_jkk
///     hexadecapole   Hsss_i = H_ijkl s_j s_k s_l,   P_kl = H_iikl, trP = P_kk
template<class T>
void evaluateMultipole(const Multipole<T>& mp, const Vec3<T>& s, MultipoleOrder order,
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

    // quadrupole, n = 2:
    //   phi_Q  = -(1/2) (3 sQs - r^2 trQ) / r^5
    //   acc_Q  = +(1/2) [ -15 sQs s / r^7 + 3 (trQ s + 2 Qs) / r^5 ]
    {
        const auto& q = mp.q; // 00 01 02 11 12 22
        Vec3<T> Qs{q[0] * s.x + q[1] * s.y + q[2] * s.z,
                   q[1] * s.x + q[3] * s.y + q[4] * s.z,
                   q[2] * s.x + q[4] * s.y + q[5] * s.z};
        T sQs = dot(s, Qs);
        T trQ = q[0] + q[3] + q[5];
        pot -= T(0.5) * (T(3) * sQs - r2 * trQ) * inv5;
        acc += T(0.5) * (T(-15) * sQs * inv7 * s + T(3) * inv5 * (trQ * s + T(2) * Qs));
    }
    if (order == MultipoleOrder::Quadrupole) return;

    T inv9 = inv7 * inv2;

    // octupole, n = 3, with O.D3 = -(15 Osss - 9 r^2 t.s) / r^7:
    //   phi_O  = +(1/6) O.D3
    //   acc_O  = +(1/6) [ (45 Oss - 9 r^2 t) / r^7 + (45 r^2 t.s - 105 Osss) s / r^9 ]
    // Oss_i is the quadratic form of the slice O_i.., whose unique entries
    // are o[0..5], o[1,3,4,6,7,8] and o[2,4,5,7,8,9] in sym2Index order.
    {
        const auto& o = mp.o; // 000 001 002 011 012 022 111 112 122 222
        Vec3<T> Oss{detail::quadraticForm(o[0], o[1], o[2], o[3], o[4], o[5], s),
                    detail::quadraticForm(o[1], o[3], o[4], o[6], o[7], o[8], s),
                    detail::quadraticForm(o[2], o[4], o[5], o[7], o[8], o[9], s)};
        Vec3<T> t{o[0] + o[3] + o[5], o[1] + o[6] + o[8], o[2] + o[7] + o[9]};
        T Osss = dot(s, Oss);
        T ts   = dot(t, s);
        pot -= (T(15) * Osss - T(9) * r2 * ts) * inv7 / T(6);
        acc += ((T(45) * Oss - T(9) * r2 * t) * inv7 +
                (T(45) * r2 * ts - T(105) * Osss) * inv9 * s) / T(6);
    }
    if (order == MultipoleOrder::Octupole) return;

    T inv11 = inv9 * inv2;

    // hexadecapole, n = 4, with H.D4 = (105 Hssss - 90 r^2 sPs + 9 r^4 trP) / r^9:
    //   phi_H  = -(1/24) H.D4
    //   acc_H  = +(1/24) [ (420 Hsss - 180 r^2 Ps) / r^9
    //                      + (630 r^2 sPs - 945 Hssss - 45 r^4 trP) s / r^11 ]
    // Hsss_i is the cubic form of the slice H_i..., whose unique entries are
    // h[0..9], h[1,3,4,6,7,8,10,11,12,13] and h[2,4,5,7,8,9,11,12,13,14] in
    // sym3Index order.
    {
        const auto& h = mp.hx; // 0000 0001 0002 0011 0012 0022 0111 0112 0122 0222
                               // 1111 1112 1122 1222 2222
        Vec3<T> Hsss{
            detail::cubicForm(h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7], h[8], h[9], s),
            detail::cubicForm(h[1], h[3], h[4], h[6], h[7], h[8], h[10], h[11], h[12], h[13], s),
            detail::cubicForm(h[2], h[4], h[5], h[7], h[8], h[9], h[11], h[12], h[13], h[14], s)};
        T p00 = h[0] + h[3] + h[5], p01 = h[1] + h[6] + h[8], p02 = h[2] + h[7] + h[9];
        T p11 = h[3] + h[10] + h[12], p12 = h[4] + h[11] + h[13], p22 = h[5] + h[12] + h[14];
        Vec3<T> Ps{p00 * s.x + p01 * s.y + p02 * s.z,
                   p01 * s.x + p11 * s.y + p12 * s.z,
                   p02 * s.x + p12 * s.y + p22 * s.z};
        T Hssss = dot(s, Hsss);
        T sPs   = dot(s, Ps);
        T trP   = p00 + p11 + p22;
        T r4    = r2 * r2;
        pot -= (T(105) * Hssss - T(90) * r2 * sPs + T(9) * r4 * trP) * inv9 / T(24);
        acc += ((T(420) * Hsss - T(180) * r2 * Ps) * inv9 +
                (T(630) * r2 * sPs - T(945) * Hssss - T(45) * r4 * trP) * inv11 * s) / T(24);
    }
}

} // namespace sphexa
