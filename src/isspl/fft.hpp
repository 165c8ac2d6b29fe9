// openSAGE -- ISSPL-style FFT.
//
// Stands in for the CSPI ISSPL vector library the paper's benchmarks
// linked against: plan-based, single-precision complex, power-of-two
// sizes, with twiddles and the input permutation precomputed per plan.
// Powers of four run a radix-4 DIT ladder; the other powers of two >= 8
// run one multiply-free radix-2 seed stage, then the same radix-4
// ladder. The ladder does two butterflies at a time on GCC/Clang vector
// types (one SSE register on baseline x86-64, no intrinsics or target
// flags), with j == 0 of every group peeled multiply-free and an odd
// last j done on the low half of a vector. kRadix2 is the scalar
// reference ladder. Both the hand-coded benchmark and the SAGE-generated
// one call these same leaf kernels, exactly as both versions on the CSPI
// machine called ISSPL.
//
// Bit-identity contract: while every value stays finite the output is
// bit for bit what the scalar std::complex<float> ladder computes --
// each twiddle product is (ar*wr - ai*wi, ai*wr + ar*wi), sign flips
// are exact, and there is no FMA or reassociation. Once an input is
// inf/NaN (or a sum overflows) it is not: the ladder does no C99
// Annex-G recovery (std::complex multiply's __mulsc3 fallback), so an
// infinity can become NaN bins where std::complex would keep it.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sage::isspl {

using Complex = std::complex<float>;

enum class FftDirection { kForward, kInverse };

/// Butterfly radix. kAuto picks radix-4 for powers of four and the
/// mixed radix-4/2 factorization (one multiply-free radix-2 seed stage,
/// then radix-4 stages) for the other powers of two >= 8, so every size
/// gets radix-4's lower multiplication count. kRadix2 forces the plain
/// radix-2 ladder (reference implementation).
enum class FftAlgorithm { kAuto, kRadix2, kRadix4, kMixed42 };

/// Precomputed transform of one size/direction. Reusable across calls and
/// threads (execution is const).
class FftPlan {
 public:
  /// `n` must be a power of two >= 2 (a power of four for kRadix4).
  FftPlan(std::size_t n, FftDirection direction,
          FftAlgorithm algorithm = FftAlgorithm::kAuto);

  std::size_t size() const { return n_; }
  FftDirection direction() const { return direction_; }
  /// The radix actually selected (kAuto resolved).
  FftAlgorithm algorithm() const { return algorithm_; }

  /// In-place transform of one n-point line.
  void execute(std::span<Complex> data) const;

  /// In-place transform of `rows` contiguous n-point lines.
  void execute_rows(std::span<Complex> data, std::size_t rows) const;

  /// Out-of-place transform: applies the bit/digit-reversal permutation
  /// while loading `in` into `out`, saving the separate copy and swap
  /// passes. Bit-identical to copying `in` into `out` and running the
  /// in-place execute(). `in` and `out` must not alias.
  void execute(std::span<const Complex> in, std::span<Complex> out) const;

  /// Out-of-place transform of `rows` contiguous n-point lines.
  void execute_rows(std::span<const Complex> in, std::span<Complex> out,
                    std::size_t rows) const;

 private:
  void build_radix2();
  void build_radix4();
  void build_mixed42();
  /// Appends the radix-4 ladder's twiddles for stages m0, 4*m0, ..., n.
  void build_radix4_twiddles(std::size_t m0);
  void execute_radix2(Complex* x) const;
  void execute_mixed42(Complex* x) const;
  /// Radix-4 butterfly ladder from stage size `m0` (growing by 4) up
  /// to n, two butterflies at a time: the whole radix-4 transform from
  /// m0 == 4, the mixed-radix one after its radix-2 seed from m0 == 8.
  void radix4_stages_(Complex* x, std::size_t m0) const;
  /// Butterfly stages + inverse scaling over already-permuted data.
  void run_stages_(Complex* x) const;

  std::size_t n_;
  FftDirection direction_;
  FftAlgorithm algorithm_;
  /// Per-stage roots of unity. Radix-2: the m/2 factors of stage m.
  /// Radix-4 ladder: the runs W1[0..m/4), W2[0..m/4), W3[0..m/4).
  std::vector<Complex> twiddles_;
  std::vector<std::uint32_t> rev_;    // input permutation (out[i] = in[rev_[i]])
  /// In-place realization of rev_ as a swap sequence. The pure-radix
  /// reversals are involutions (swap when i < rev_[i]); the mixed-radix
  /// digit reversal is not, so its cycles are precomputed here.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> perm_swaps_;
};

/// Real-input FFT via the packed half-size complex transform: n real
/// samples in, n/2 + 1 spectrum bins (DC .. Nyquist) out -- the usual
/// front half of a radar chain digitizing real IF samples.
class RfftPlan {
 public:
  /// `n` must be a power of two >= 4.
  explicit RfftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t bins() const { return n_ / 2 + 1; }

  /// out.size() must be bins().
  void execute(std::span<const float> in, std::span<Complex> out) const;

 private:
  std::size_t n_;
  FftPlan half_;
  std::vector<Complex> unpack_tw_;  // e^(-2*pi*i*k/n), k = 0..n/2
};

/// One-shot helpers (plan construction amortized away for tests/examples).
void fft(std::span<Complex> data);
void ifft(std::span<Complex> data);

/// Full 2D FFT of a rows x cols matrix (row-major, both powers of two):
/// FFT along rows, transpose, FFT along (former) columns, transpose back.
void fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols);

}  // namespace sage::isspl
