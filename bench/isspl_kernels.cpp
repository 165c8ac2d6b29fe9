// ISSPL leaf-kernel microbenchmarks: the compute primitives both the
// hand-coded and generated benchmark versions spend their time in.
#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <vector>

#include "isspl/fft.hpp"
#include "isspl/transpose.hpp"
#include "isspl/vector_ops.hpp"
#include "support/rng.hpp"

namespace {

using namespace sage;
using Complex = std::complex<float>;

// A seeded, finite input filled once. Every iteration runs the
// out-of-place execute from it, so each does the same work on the same
// data; transforming the output in place again would overflow to inf/NaN
// within a few dozen iterations and time the NaN path instead.
std::vector<Complex> seeded_input(std::size_t count) {
  support::Rng rng(count);
  std::vector<Complex> out(count);
  for (auto& v : out) {
    v = Complex(static_cast<float>(rng.uniform(-1, 1)),
                static_cast<float>(rng.uniform(-1, 1)));
  }
  return out;
}

void skip_unless_finite(benchmark::State& state,
                        const std::vector<Complex>& out) {
  for (const Complex& v : out) {
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
      state.SkipWithError("FFT output is not finite");
      return;
    }
  }
}

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  isspl::FftPlan plan(n, isspl::FftDirection::kForward);
  const std::vector<Complex> in = seeded_input(n);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    plan.execute(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  skip_unless_finite(state, out);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1d)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Fft1dRadix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algorithm = static_cast<isspl::FftAlgorithm>(state.range(1));
  isspl::FftPlan plan(n, isspl::FftDirection::kForward, algorithm);
  const std::vector<Complex> in = seeded_input(n);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    plan.execute(in, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  skip_unless_finite(state, out);
}
BENCHMARK(BM_Fft1dRadix)
    ->Args({1024, static_cast<int>(isspl::FftAlgorithm::kRadix2)})
    ->Args({1024, static_cast<int>(isspl::FftAlgorithm::kRadix4)})
    ->Args({4096, static_cast<int>(isspl::FftAlgorithm::kRadix2)})
    ->Args({4096, static_cast<int>(isspl::FftAlgorithm::kRadix4)});

void BM_FftRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  isspl::FftPlan plan(n, isspl::FftDirection::kForward);
  const std::vector<Complex> in = seeded_input(rows * n);
  std::vector<Complex> out(rows * n);
  for (auto _ : state) {
    plan.execute_rows(in, out, rows);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  skip_unless_finite(state, out);
}
BENCHMARK(BM_FftRows)->Arg(256)->Arg(1024);

void BM_Transpose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Complex> in(n * n, Complex(1.0f, 0.0f));
  std::vector<Complex> out(n * n);
  for (auto _ : state) {
    isspl::transpose(std::span<const Complex>(in), std::span<Complex>(out), n,
                     n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * sizeof(Complex)));
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024);

void BM_PackColumnBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = n / 8;
  const std::size_t ncols = n / 8;
  std::vector<Complex> matrix(rows * n);
  std::vector<Complex> block(rows * ncols);
  for (auto _ : state) {
    isspl::pack_column_block(std::span<const Complex>(matrix), rows, n, 0,
                             ncols, std::span<Complex>(block));
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_PackColumnBlock)->Arg(1024);

void BM_Magnitude(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Complex> in(n, Complex(3.0f, 4.0f));
  std::vector<float> out(n);
  for (auto _ : state) {
    isspl::vmag(in, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Magnitude)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
