/// Kernel library tests: 3D normalization, compact support, smoothness,
/// derivative consistency, grad-h identity, and tabulated evaluation, swept
/// over all kernel families with parameterized tests.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "backend/lane_kernel.hpp"
#include "math/quadrature.hpp"
#include "sph/kernels.hpp"

using namespace sphexa;

class KernelSweep : public ::testing::TestWithParam<KernelType>
{
protected:
    Kernel<double> k{GetParam()};
};

TEST_P(KernelSweep, NormalizedIn3D)
{
    // 4 pi int_0^2 W(q) q^2 dq = 1 for h = 1 (independent quadrature).
    auto integrand = [&](double q) { return k.fq(q) * q * q; };
    double integral = 4 * std::numbers::pi * integrate<double>(integrand, 0.0, 2.0, 1e-13);
    EXPECT_NEAR(integral, 1.0, 1e-8) << kernelName(GetParam());
}

TEST_P(KernelSweep, CompactSupport)
{
    EXPECT_DOUBLE_EQ(k.fq(2.0), 0.0);
    EXPECT_DOUBLE_EQ(k.fq(2.5), 0.0);
    EXPECT_DOUBLE_EQ(k.dfq(2.0), 0.0);
    EXPECT_DOUBLE_EQ(k.value(3.0, 1.0), 0.0);
    EXPECT_GT(k.fq(0.0), 0.0);
    EXPECT_GT(k.fq(1.0), 0.0);
}

TEST_P(KernelSweep, MonotonicallyDecreasing)
{
    double prev = k.fq(0.0);
    for (double q = 0.05; q <= 2.0; q += 0.05)
    {
        double cur = k.fq(q);
        EXPECT_LE(cur, prev + 1e-14) << "q=" << q;
        prev = cur;
    }
}

TEST_P(KernelSweep, DerivativeMatchesFiniteDifference)
{
    const double dq = 1e-6;
    for (double q : {0.1, 0.35, 0.73, 1.0, 1.2, 1.7, 1.95})
    {
        double fd = (k.fq(q + dq) - k.fq(q - dq)) / (2 * dq);
        EXPECT_NEAR(k.dfq(q), fd, 1e-5 * std::max(1.0, std::abs(fd))) << "q=" << q;
    }
}

TEST_P(KernelSweep, DerivativeNonPositive)
{
    for (double q = 0.0; q <= 2.0; q += 0.01)
    {
        EXPECT_LE(k.dfq(q), 1e-14) << "q=" << q;
    }
}

TEST_P(KernelSweep, ValueScalesAsHMinus3)
{
    // W(0, h) = sigma f(0) / h^3
    double w1 = k.value(0.0, 1.0);
    double w2 = k.value(0.0, 2.0);
    EXPECT_NEAR(w1 / w2, 8.0, 1e-12);
}

TEST_P(KernelSweep, SelfSimilarity)
{
    // W(r, h) = W(r/h, 1)/h^3 for several (r, h)
    for (double h : {0.5, 1.0, 3.0})
    {
        for (double q : {0.2, 0.9, 1.5})
        {
            EXPECT_NEAR(k.value(q * h, h), k.value(q, 1.0) / (h * h * h), 1e-12);
        }
    }
}

TEST_P(KernelSweep, GradHIdentity)
{
    // dW/dh = -(3 W + q dW/dq)/h at h=1: check against finite difference in h.
    const double dh = 1e-6;
    Kernel<double> kh{GetParam()};
    for (double r : {0.3, 0.8, 1.4})
    {
        double fd = (kh.value(r, 1.0 + dh) - kh.value(r, 1.0 - dh)) / (2 * dh);
        EXPECT_NEAR(kh.dh(r, 1.0), fd, 1e-5 * std::max(1.0, std::abs(fd))) << "r=" << r;
    }
}

TEST_P(KernelSweep, TabulatedAgreesWithAnalytic)
{
    // the lane evaluator of phases E-H: a 20000-sample table for Sinc, the
    // shared closed forms otherwise
    LaneKernel<double> lanes(k, 20000);
    for (double q = 0.001; q < 2.0; q += 0.0137)
    {
        double f, df;
        lanes.fdf(q, f, df);
        EXPECT_NEAR(f, k.fq(q), 1e-6 * std::max(1.0, k.fq(0.0)));
        EXPECT_NEAR(df, k.dfq(q), 1e-5 * std::max(1.0, std::abs(k.dfq(1.0))));
    }
    double f, df;
    lanes.fdf(2.5, f, df);
    EXPECT_DOUBLE_EQ(f, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Values(KernelType::Sinc, KernelType::CubicSpline,
                                           KernelType::WendlandC2, KernelType::WendlandC4,
                                           KernelType::WendlandC6, KernelType::DebrunSpiky),
                         [](const auto& info) {
                             switch (info.param)
                             {
                                 case KernelType::Sinc: return "Sinc";
                                 case KernelType::CubicSpline: return "M4";
                                 case KernelType::WendlandC2: return "WendlandC2";
                                 case KernelType::WendlandC4: return "WendlandC4";
                                 case KernelType::WendlandC6: return "WendlandC6";
                                 case KernelType::DebrunSpiky: return "DebrunSpiky";
                             }
                             return "unknown";
                         });

// --- sinc-family specifics --------------------------------------------------

TEST(SincKernel, NormalizationVariesWithExponent)
{
    // Higher n concentrates the kernel: larger central value.
    Kernel<double> k3(KernelType::Sinc, 3.0);
    Kernel<double> k5(KernelType::Sinc, 5.0);
    Kernel<double> k8(KernelType::Sinc, 8.0);
    EXPECT_LT(k3.fq(0.0), k5.fq(0.0));
    EXPECT_LT(k5.fq(0.0), k8.fq(0.0));
}

TEST(SincKernel, EachExponentNormalized)
{
    for (double n : {3.0, 4.0, 5.0, 6.5, 9.0, 12.0})
    {
        Kernel<double> k(KernelType::Sinc, n);
        auto integrand = [&](double q) { return k.fq(q) * q * q; };
        double integral =
            4 * std::numbers::pi * integrate<double>(integrand, 0.0, 2.0, 1e-13);
        EXPECT_NEAR(integral, 1.0, 1e-8) << "n=" << n;
    }
}

TEST(SincKernel, RejectsInvalidExponent)
{
    EXPECT_THROW((Kernel<double>(KernelType::Sinc, 1.0)), std::invalid_argument);
}

TEST(SincKernel, ApproachesCubicSplineShapeAtN3)
{
    // The n=3 sinc is known to resemble (not equal) the M4 spline: both
    // normalized, same support; their central values are within ~15%.
    Kernel<double> sinc3(KernelType::Sinc, 3.0);
    Kernel<double> m4(KernelType::CubicSpline);
    EXPECT_NEAR(sinc3.fq(0.0), m4.fq(0.0), 0.15 * m4.fq(0.0));
}

// --- Debrun spiky specifics -------------------------------------------------

TEST(DebrunSpiky, GradientNonzeroAtOrigin)
{
    // the defining property of the pressure kernel: f'(0) = -12, not 0, so
    // close particle pairs always feel a repulsive pressure gradient
    Kernel<double> spiky(KernelType::DebrunSpiky);
    EXPECT_NEAR(spiky.dfq(0.0), -12.0 * debrunSpikySigma<double>(), 1e-14);
    // contrast: the bell-shaped M4 has a flat top
    EXPECT_DOUBLE_EQ(Kernel<double>(KernelType::CubicSpline).dfq(0.0), 0.0);
}

TEST(DebrunSpiky, ClosedFormNormalization)
{
    // sigma = 15/(64 pi): int_0^2 (2-q)^3 q^2 dq = 16/15
    EXPECT_NEAR(Kernel<double>(KernelType::DebrunSpiky).normalization(),
                15.0 / (64 * std::numbers::pi), 1e-15);
    EXPECT_NEAR(debrunSpikySigma<double>(), 0.074603879574326, 1e-14);
}

TEST(DebrunSpiky, FreeFunctionsAgreeWithKernelObject)
{
    Kernel<double> spiky(KernelType::DebrunSpiky);
    for (double h : {0.5, 1.0, 2.0})
    {
        for (double r : {0.0, 0.3, 0.9, 1.4 * h, 2.5 * h})
        {
            EXPECT_NEAR(debrunSpikyKernel(r, h), spiky.value(r, h), 1e-14)
                << "r=" << r << " h=" << h;
        }
    }
    // out-of-support and negative arguments are hard zeros
    EXPECT_DOUBLE_EQ(debrunSpikyKernel(2.1, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(debrunSpikyKernel(-0.1, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(debrunSpikyDwdr(2.1, 1.0), 0.0);
}

TEST(DebrunSpiky, MatchesPublishedCoefficientForm)
{
    // the classic spiky form W(r) = 15/(pi H^6) (H - r)^3 with support
    // radius H equals this library's sigma/h^3 (2 - q)^3 at h = H/2; the
    // 3D coefficient for H = 0.789 is a published golden value
    double H     = 0.789;
    double coeff = 19.791529914316335; // 15 / (pi * 0.789^6)
    for (double r : {0.1, 0.3, 0.6})
    {
        EXPECT_NEAR(debrunSpikyKernel(r, H / 2), coeff * std::pow(H - r, 3.0),
                    1e-12 * coeff) << "r=" << r;
    }
}

TEST(DebrunSpiky, GradientMatchesFiniteDifference)
{
    double h = 0.7;
    Vec3<double> d{0.3, 0.2, -0.1};
    auto grad = debrunSpikyGradient(d, h);
    const double eps = 1e-6;
    double* comp[3] = {&d.x, &d.y, &d.z};
    double g[3]     = {grad.x, grad.y, grad.z};
    for (int ax = 0; ax < 3; ++ax)
    {
        double saved = *comp[ax];
        *comp[ax]    = saved + eps;
        double wp    = debrunSpikyKernel(norm(d), h);
        *comp[ax]    = saved - eps;
        double wm    = debrunSpikyKernel(norm(d), h);
        *comp[ax]    = saved;
        EXPECT_NEAR(g[ax], (wp - wm) / (2 * eps), 1e-5) << "axis " << ax;
    }
    // the gradient points from neighbor to particle (repulsive direction)
    EXPECT_LT(dot(grad, d), 0.0);
    // coincident pair: no direction, zero gradient
    auto g0 = debrunSpikyGradient(Vec3<double>{0, 0, 0}, h);
    EXPECT_DOUBLE_EQ(g0.x, 0.0);
    EXPECT_DOUBLE_EQ(g0.y, 0.0);
    EXPECT_DOUBLE_EQ(g0.z, 0.0);
}

TEST(DebrunSpiky, LaplacianMatchesFiniteDifferenceAndGoldenValue)
{
    // radial Laplacian in 3D: W'' + (2/r) W'
    double h = 1.0;
    const double eps = 1e-5;
    for (double r : {0.4, 0.8, 1.3, 1.8})
    {
        double wp  = debrunSpikyKernel(r + eps, h);
        double w0  = debrunSpikyKernel(r, h);
        double wm  = debrunSpikyKernel(r - eps, h);
        double fd  = (wp - 2 * w0 + wm) / (eps * eps) + (wp - wm) / (eps * r);
        EXPECT_NEAR(debrunSpikyLaplacian(r, h), fd, 1e-4 * std::abs(fd)) << "r=" << r;
    }
    // golden value: 12 sigma (2-q)(q-1)/q at q = 1/2 is -18 sigma
    EXPECT_NEAR(debrunSpikyLaplacian(0.5, 1.0), -1.342869832337867, 1e-12);
    EXPECT_DOUBLE_EQ(debrunSpikyLaplacian(2.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(debrunSpikyLaplacian(0.0, 1.0), 0.0); // singular point guarded
}

// --- closed-form normalizations --------------------------------------------

TEST(KernelNormalization, ClosedFormsMatchLiterature)
{
    constexpr double pi = std::numbers::pi;
    EXPECT_NEAR(Kernel<double>(KernelType::CubicSpline).normalization(), 1.0 / pi, 1e-15);
    EXPECT_NEAR(Kernel<double>(KernelType::WendlandC2).normalization(), 21.0 / (16 * pi),
                1e-15);
    EXPECT_NEAR(Kernel<double>(KernelType::WendlandC4).normalization(), 495.0 / (256 * pi),
                1e-15);
    EXPECT_NEAR(Kernel<double>(KernelType::WendlandC6).normalization(), 1365.0 / (512 * pi),
                1e-15);
}

TEST(KernelNormalization, FloatInstantiation)
{
    // 32-bit instantiation exists and is normalized (the library is generic
    // even though the mini-app mandates 64-bit).
    Kernel<float> k(KernelType::WendlandC2);
    auto integrand = [&](float q) { return k.fq(q) * q * q; };
    float integral =
        4 * std::numbers::pi_v<float> * integrateSimpson<float>(integrand, 0.f, 2.f, 2000);
    EXPECT_NEAR(integral, 1.0f, 1e-4f);
}

TEST(KernelNames, AllDistinct)
{
    EXPECT_EQ(kernelName(KernelType::Sinc), "Sinc");
    EXPECT_EQ(kernelName(KernelType::CubicSpline), "M4 spline");
    EXPECT_EQ(kernelName(KernelType::WendlandC2), "Wendland C2");
}
