#pragma once

/// \file lane_kernel.hpp
/// Branch-free lane evaluation of the SPH kernel shape functions f(q) and
/// f'(q) for the lane kernels of phases E-H.
///
/// The closed-form families (spline, Wendland, spiky) call the same
/// branch-free shape functions as Kernel<T>::fq/dfq (kernel_shape in
/// sph/kernels.hpp): a lane's value is bitwise Kernel<T>'s value for the
/// same q, so the lane sums differ from the per-pair reference loops
/// (tests/scalar_oracle.hpp) by neighbor-sum re-association alone (tight
/// tolerance gates in tests/test_backend.cpp).
///
/// The sinc family has no branch-free closed form (std::pow of a
/// transcendental per pair — the reference loops' dominant cost); the
/// lanes evaluate it through the math/lookup_table.hpp tabulation of the
/// normalized shape, SPHYNX-style. That is an approximation (~1e-8
/// relative at the default 20000 samples), so the sinc oracle gates are
/// correspondingly looser — and the table is why the lanes beat the
/// reference loops by far more than lane parallelism alone on the default
/// sinc configuration (BENCH_simd.json).
///
/// At q = 0 the table returns its exact first sample fq(0), so self
/// contributions equal Kernel<T>'s bitwise for every kernel type.

#include <cstddef>

#include "backend/simd_tile.hpp"
#include "math/lookup_table.hpp"
#include "sph/kernels.hpp"

namespace sphexa {

/// Immutable lane evaluator for one kernel; cheap to share across threads
/// (like Kernel, all evaluation is const). The kernel argument of the
/// phase E-H shells: drivers own one per simulation and hand it to the
/// phase ops through StepContext::kernel.
template<class T>
class LaneKernel
{
public:
    static constexpr std::size_t defaultTableSize = 20000;

    explicit LaneKernel(const Kernel<T>& kernel, std::size_t tableSize = defaultTableSize)
        : type_(kernel.type()), sigma_(kernel.normalization())
    {
        if (type_ == KernelType::Sinc)
        {
            fTable_  = LookupTable<T>([&](T q) { return kernel.fq(q); }, T(0),
                                      Kernel<T>::supportRadius, tableSize);
            dfTable_ = LookupTable<T>([&](T q) { return kernel.dfq(q); }, T(0),
                                      Kernel<T>::supportRadius, tableSize);
        }
    }

    KernelType type() const { return type_; }

    /// Single-lane f(q), f'(q) (sigma included, zero at q >= 2): the self-
    /// contribution path (q = 0) and scalar epilogues.
    void fdf(T q, T& f, T& df) const
    {
        T fq[backend::kLaneWidth] = {};
        T dfq[backend::kLaneWidth] = {};
        T qq[backend::kLaneWidth] = {};
        qq[0] = q;
        fdf(qq, fq, dfq);
        f  = fq[0];
        df = dfq[0];
    }

    /// W(r, h) and dW/dr from the lane shapes: the (r, h) interface of
    /// Kernel<T>, so per-pair estimators (iadScalarGradient & co.) evaluate
    /// the same W the phase E-H sums do.
    T value(T r, T h) const
    {
        T f, df;
        fdf(r / h, f, df);
        return f / (h * h * h);
    }

    T derivative(T r, T h) const
    {
        T f, df;
        fdf(r / h, f, df);
        return df / (h * h * h * h);
    }

    /// One tile of f(q), f'(q), branch-free across lanes. Lanes with
    /// q >= supportRadius produce exact zeros (select for the closed forms,
    /// the clamped-to-zero last table sample for sinc), so padded or
    /// out-of-support lanes never contaminate accumulators.
    void fdf(const T (&q)[backend::kLaneWidth], T (&f)[backend::kLaneWidth],
             T (&df)[backend::kLaneWidth]) const
    {
        using namespace kernel_shape;
        switch (type_)
        {
            case KernelType::Sinc:
                for (std::size_t l = 0; l < backend::kLaneWidth; ++l)
                {
                    f[l]  = fTable_(q[l]);
                    df[l] = dfTable_(q[l]);
                }
                return;
            case KernelType::CubicSpline:
                return closedForm<cubicSplineF<T>, cubicSplineDf<T>>(q, f, df);
            case KernelType::WendlandC2:
                return closedForm<wendlandC2F<T>, wendlandC2Df<T>>(q, f, df);
            case KernelType::WendlandC4:
                return closedForm<wendlandC4F<T>, wendlandC4Df<T>>(q, f, df);
            case KernelType::WendlandC6:
                return closedForm<wendlandC6F<T>, wendlandC6Df<T>>(q, f, df);
            case KernelType::DebrunSpiky:
                return closedForm<debrunSpikyF<T>, debrunSpikyDf<T>>(q, f, df);
        }
        // not a KernelType: zeros, like Kernel<T>::fqRaw's fallback
        for (std::size_t l = 0; l < backend::kLaneWidth; ++l)
            f[l] = df[l] = T(0);
    }

private:
    /// The lane loop of one closed-form shape (sph/kernels.hpp), with the
    /// q >= 2 cut and sigma applied exactly as Kernel<T>::fq/dfq do.
    template<T (*F)(T), T (*DF)(T)>
    void closedForm(const T (&q)[backend::kLaneWidth], T (&f)[backend::kLaneWidth],
                    T (&df)[backend::kLaneWidth]) const
    {
        for (std::size_t l = 0; l < backend::kLaneWidth; ++l)
        {
            T qq = q[l];
            T fr = F(qq);
            T dr = DF(qq);
            f[l]  = qq >= T(2) ? T(0) : sigma_ * fr;
            df[l] = qq >= T(2) ? T(0) : sigma_ * dr;
        }
    }

    KernelType type_;
    T sigma_;
    LookupTable<T> fTable_;  ///< sinc only: sigma-included f(q) over [0, 2]
    LookupTable<T> dfTable_; ///< sinc only: sigma-included f'(q)
};

} // namespace sphexa
