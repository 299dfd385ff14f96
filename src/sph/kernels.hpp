#pragma once

/// \file kernels.hpp
/// SPH interpolation kernels: the three families the SPH-EXA mini-app must
/// support per Table 2 of the paper.
///
///  - Sinc family S_n (SPHYNX; Cabezon, Garcia-Senz & Relano 2008)
///  - M4 cubic spline (ChaNGa; Monaghan & Lattanzio 1985)
///  - Wendland C2/C4/C6 (ChaNGa, SPH-flow; Dehnen & Aly 2012)
///  - Debrun spiky (WCSPH/free-surface codes; Desbrun & Gascuel 1996),
///    whose gradient does NOT vanish at the origin — the property pressure
///    forces need to keep close particle pairs apart in weakly-compressible
///    flows
///
/// All kernels are normalized in 3D and share a compact support radius of
/// 2h, so neighbor discovery is kernel-agnostic. q = r/h throughout:
///
///     W(r, h)      = sigma / h^3 * f(q)
///     dW/dr        = sigma / h^4 * f'(q)
///     dW/dh        = -sigma / h^4 * (3 f(q) + q f'(q))     (grad-h term)
///
/// The sinc normalization has no closed form for arbitrary exponent n; it is
/// computed at construction by adaptive quadrature (math/quadrature.hpp).

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string_view>

#include "math/quadrature.hpp"
#include "math/vec.hpp"

namespace sphexa {

enum class KernelType
{
    Sinc,        ///< S_n(q) = B_n sinc(pi q / 2)^n, SPHYNX default (n ~ 5)
    CubicSpline, ///< M4 spline, the classic SPH kernel
    WendlandC2,
    WendlandC4,
    WendlandC6,
    DebrunSpiky, ///< f(q) = (2 - q)^3: the WCSPH pressure kernel
};

constexpr std::string_view kernelName(KernelType k)
{
    switch (k)
    {
        case KernelType::Sinc: return "Sinc";
        case KernelType::CubicSpline: return "M4 spline";
        case KernelType::WendlandC2: return "Wendland C2";
        case KernelType::WendlandC4: return "Wendland C4";
        case KernelType::WendlandC6: return "Wendland C6";
        case KernelType::DebrunSpiky: return "Debrun spiky";
    }
    return "?";
}

/// The closed-form kernel shapes: un-normalized f(q) and f'(q), valid on
/// 0 <= q < 2 (callers zero q >= 2 and apply sigma). The one definition
/// of each formula: Kernel<T>::fq/dfq and the lane loops of LaneKernel
/// (backend/lane_kernel.hpp) both call these, so a lane's value is bitwise
/// the scalar one. Branch-free — the spline's two pieces are both computed
/// and selected — so the lane loops stay vectorizable.
namespace kernel_shape {

template<class T>
inline T cubicSplineF(T q)
{
    T t  = T(2) - q;
    T fi = T(1) - T(1.5) * q * q + T(0.75) * q * q * q;
    T fo = T(0.25) * t * t * t;
    return q < T(1) ? fi : fo;
}

template<class T>
inline T cubicSplineDf(T q)
{
    T t  = T(2) - q;
    T di = -T(3) * q + T(2.25) * q * q;
    T dq = -T(0.75) * t * t;
    return q < T(1) ? di : dq;
}

template<class T>
inline T wendlandC2F(T q)
{
    T t  = T(1) - q / 2;
    T t2 = t * t;
    return t2 * t2 * (T(2) * q + T(1));
}

template<class T>
inline T wendlandC2Df(T q)
{
    T t = T(1) - q / 2;
    return -T(5) * q * t * t * t;
}

template<class T>
inline T wendlandC4F(T q)
{
    T t  = T(1) - q / 2;
    T t2 = t * t;
    return t2 * t2 * t2 * ((T(35) / 12) * q * q + T(3) * q + T(1));
}

template<class T>
inline T wendlandC4Df(T q)
{
    T t  = T(1) - q / 2;
    T t2 = t * t;
    return -(T(7) / 3) * q * (T(5) * q + T(2)) * t2 * t2 * t;
}

template<class T>
inline T wendlandC6F(T q)
{
    T t  = T(1) - q / 2;
    T t2 = t * t;
    T t4 = t2 * t2;
    return t4 * t4 * (T(4) * q * q * q + (T(25) / 4) * q * q + T(4) * q + T(1));
}

template<class T>
inline T wendlandC6Df(T q)
{
    T t  = T(1) - q / 2;
    T t2 = t * t;
    T t4 = t2 * t2;
    return -(T(11) / 4) * q * (T(8) * q * q + T(7) * q + T(2)) * t4 * t2 * t;
}

template<class T>
inline T debrunSpikyF(T q)
{
    T t = T(2) - q;
    return t * t * t;
}

/// f'(0) = -12: the spiky gradient stays finite and nonzero at the origin
/// instead of vanishing like the spline family.
template<class T>
inline T debrunSpikyDf(T q)
{
    T t = T(2) - q;
    return -T(3) * t * t;
}

} // namespace kernel_shape

/// A 3D-normalized compact-support SPH kernel.
///
/// The class is a value type: cheap to copy, safe to share across threads
/// (all evaluation methods are const and touch only immutable state).
template<class T>
class Kernel
{
public:
    /// All supported kernels vanish at q = supportRadius.
    static constexpr T supportRadius = T(2);

    /// Build a kernel of the given type. \p sincExponent is used only by
    /// KernelType::Sinc; SPHYNX operates n in [3, 12] with 5 typical.
    explicit Kernel(KernelType type = KernelType::Sinc, T sincExponent = T(5))
        : type_(type), n_(sincExponent)
    {
        if (type_ == KernelType::Sinc)
        {
            if (!(n_ > T(2))) throw std::invalid_argument("sinc exponent must exceed 2");
            // B_n = 1 / (4 pi int_0^2 f(q) q^2 dq)
            T integral = integrate<T>([this](T q) { return fqRaw(q) * q * q; }, T(0),
                                      supportRadius, T(1e-14));
            sigma_ = T(1) / (T(4) * std::numbers::pi_v<T> * integral);
        }
        else
        {
            sigma_ = closedFormSigma(type_);
        }
    }

    KernelType type() const { return type_; }
    T sincExponent() const { return n_; }

    /// 3D normalization constant sigma (W = sigma/h^3 f(q)).
    T normalization() const { return sigma_; }

    /// Dimensionless kernel shape f(q), with f(q >= 2) = 0.
    T fq(T q) const { return q >= supportRadius ? T(0) : sigma_ * fqRaw(q); }

    /// Dimensionless derivative f'(q).
    T dfq(T q) const { return q >= supportRadius ? T(0) : sigma_ * dfqRaw(q); }

    /// Kernel value W(r, h).
    T value(T r, T h) const { return fq(r / h) / (h * h * h); }

    /// Radial derivative dW/dr (negative inside the support).
    T derivative(T r, T h) const { return dfq(r / h) / (h * h * h * h); }

    /// Derivative with respect to the smoothing length, dW/dh.
    T dh(T r, T h) const
    {
        T q = r / h;
        return -(T(3) * fq(q) + q * dfq(q)) / (h * h * h * h);
    }

private:
    static T closedFormSigma(KernelType type)
    {
        constexpr T pi = std::numbers::pi_v<T>;
        switch (type)
        {
            case KernelType::CubicSpline: return T(1) / pi;
            case KernelType::WendlandC2: return T(21) / (T(16) * pi);
            case KernelType::WendlandC4: return T(495) / (T(256) * pi);
            case KernelType::WendlandC6: return T(1365) / (T(512) * pi);
            // int_0^2 (2-q)^3 q^2 dq = 16/15  =>  sigma = 15/(64 pi); in the
            // classic support-H form this is the 15/(pi H^6) spiky of
            // Desbrun & Gascuel with H = 2h
            case KernelType::DebrunSpiky: return T(15) / (T(64) * pi);
            default: return T(0); // unreachable; sinc handled numerically
        }
    }

    /// Un-normalized shape.
    T fqRaw(T q) const
    {
        switch (type_)
        {
            case KernelType::Sinc: return std::pow(sinc(std::numbers::pi_v<T> / 2 * q), n_);
            case KernelType::CubicSpline: return kernel_shape::cubicSplineF(q);
            case KernelType::WendlandC2: return kernel_shape::wendlandC2F(q);
            case KernelType::WendlandC4: return kernel_shape::wendlandC4F(q);
            case KernelType::WendlandC6: return kernel_shape::wendlandC6F(q);
            case KernelType::DebrunSpiky: return kernel_shape::debrunSpikyF(q);
        }
        return T(0);
    }

    /// Un-normalized derivative d f / d q.
    T dfqRaw(T q) const
    {
        switch (type_)
        {
            case KernelType::Sinc:
            {
                constexpr T halfPi = std::numbers::pi_v<T> / 2;
                T x = halfPi * q;
                T s = sinc(x);
                // d/dq [S(x)^n] = n S^{n-1} S'(x) * halfPi
                return n_ * std::pow(s, n_ - T(1)) * dsinc(x) * halfPi;
            }
            case KernelType::CubicSpline: return kernel_shape::cubicSplineDf(q);
            case KernelType::WendlandC2: return kernel_shape::wendlandC2Df(q);
            case KernelType::WendlandC4: return kernel_shape::wendlandC4Df(q);
            case KernelType::WendlandC6: return kernel_shape::wendlandC6Df(q);
            case KernelType::DebrunSpiky: return kernel_shape::debrunSpikyDf(q);
        }
        return T(0);
    }

    /// sinc(x) = sin(x)/x with the removable singularity handled by series.
    static T sinc(T x)
    {
        if (std::abs(x) < T(1e-4))
        {
            T x2 = x * x;
            return T(1) - x2 / 6 + x2 * x2 / 120;
        }
        return std::sin(x) / x;
    }

    /// d sinc / d x.
    static T dsinc(T x)
    {
        if (std::abs(x) < T(1e-4))
        {
            T x2 = x * x;
            return -x / 3 + x * x2 / 30;
        }
        return (x * std::cos(x) - std::sin(x)) / (x * x);
    }

    KernelType type_;
    T n_;
    T sigma_{};
};

// --- Debrun spiky closed forms ----------------------------------------------
//
// The WCSPH pressure kernel as standalone (r, h) functions: W, dW/dr, the
// radial gradient vector, and the Laplacian nabla^2 W that weakly-
// compressible viscosity operators use. Equivalent to
// Kernel<T>(KernelType::DebrunSpiky) but without constructing a kernel, and
// defined (as zero) for negative r so boundary-distance arithmetic can call
// them unguarded.

/// 3D spiky normalization sigma = 15/(64 pi) (support radius 2h).
template<class T>
constexpr T debrunSpikySigma()
{
    return T(15) / (T(64) * std::numbers::pi_v<T>);
}

/// W(r, h) = sigma/h^3 (2 - r/h)^3 for 0 <= r < 2h, else 0.
template<class T>
T debrunSpikyKernel(T r, T h)
{
    T q = r / h;
    if (q < T(0) || q >= T(2)) return T(0);
    T t = T(2) - q;
    return debrunSpikySigma<T>() * t * t * t / (h * h * h);
}

/// dW/dr = -3 sigma/h^4 (2 - r/h)^2: finite and nonzero at r = 0 (the
/// defining spiky property — spline-family gradients vanish there).
template<class T>
T debrunSpikyDwdr(T r, T h)
{
    T q = r / h;
    if (q < T(0) || q >= T(2)) return T(0);
    T t = T(2) - q;
    return -T(3) * debrunSpikySigma<T>() * t * t / (h * h * h * h);
}

/// Gradient vector: d/|d| * dW/dr for separation d (zero at zero distance).
template<class T>
Vec3<T> debrunSpikyGradient(const Vec3<T>& d, T h)
{
    T r = std::sqrt(norm2(d));
    if (r <= T(0)) return {T(0), T(0), T(0)};
    T scale = debrunSpikyDwdr(r, h) / r;
    return {d.x * scale, d.y * scale, d.z * scale};
}

/// Radial Laplacian nabla^2 W = sigma/h^5 (f''(q) + 2 f'(q)/q)
///                            = 12 sigma/h^5 (2 - q)(q - 1)/q.
/// Singular (-> -inf) as r -> 0, like the classic spiky Laplacian; callers
/// evaluate it at finite pair separations only.
template<class T>
T debrunSpikyLaplacian(T r, T h)
{
    T q = r / h;
    if (q <= T(0) || q >= T(2)) return T(0);
    T t = T(2) - q;
    return T(12) * debrunSpikySigma<T>() * t * (q - T(1)) / (q * h * h * h * h * h);
}

} // namespace sphexa
