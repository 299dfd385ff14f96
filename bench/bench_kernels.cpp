/// \file bench_kernels.cpp
/// Kernel ablation (google-benchmark): evaluation cost of every kernel
/// family in Table 2 — analytic vs the table-accelerated Sinc of the lane
/// evaluator (backend/lane_kernel.hpp) that phases E-H use. Informs the
/// mini-app's interchangeable-kernel design ("implemented as separate
/// interchangeable modules", Sec. 4).

#include <benchmark/benchmark.h>

#include "backend/lane_kernel.hpp"
#include "sph/kernels.hpp"

using namespace sphexa;

namespace {

template<KernelType K>
void BM_KernelValue(benchmark::State& state)
{
    Kernel<double> k(K);
    double q = 0.0;
    for (auto _ : state)
    {
        q += 1e-7;
        if (q >= 2.0) q = 0.0;
        benchmark::DoNotOptimize(k.fq(q));
    }
}

template<KernelType K>
void BM_KernelDerivative(benchmark::State& state)
{
    Kernel<double> k(K);
    double q = 0.0;
    for (auto _ : state)
    {
        q += 1e-7;
        if (q >= 2.0) q = 0.0;
        benchmark::DoNotOptimize(k.dfq(q));
    }
}

void BM_SincTabulated(benchmark::State& state)
{
    LaneKernel<double> k(Kernel<double>(KernelType::Sinc), std::size_t(state.range(0)));
    double q = 0.0;
    for (auto _ : state)
    {
        q += 1e-7;
        if (q >= 2.0) q = 0.0;
        double f, df;
        k.fdf(q, f, df);
        benchmark::DoNotOptimize(f);
    }
}

} // namespace

BENCHMARK(BM_KernelValue<KernelType::Sinc>)->Name("kernel_value/sinc");
BENCHMARK(BM_KernelValue<KernelType::CubicSpline>)->Name("kernel_value/m4");
BENCHMARK(BM_KernelValue<KernelType::WendlandC2>)->Name("kernel_value/wendland_c2");
BENCHMARK(BM_KernelValue<KernelType::WendlandC6>)->Name("kernel_value/wendland_c6");
BENCHMARK(BM_KernelDerivative<KernelType::Sinc>)->Name("kernel_deriv/sinc");
BENCHMARK(BM_KernelDerivative<KernelType::WendlandC2>)->Name("kernel_deriv/wendland_c2");
BENCHMARK(BM_SincTabulated)->Name("kernel_value/sinc_tabulated")->Arg(20000);

BENCHMARK_MAIN();
