// sagebench -- shared declarations of the openSAGE benchmark program.
//
// sagebench measures the library only from outside: it times calls into
// each layer's public functions (apps::make_*_workspace, Project
// generate/compile/open, Session run/submit/wait, isspl kernels, viz
// exporters, serve::Server) and reads what RunStats and viz::Trace
// already report. Nothing here instruments src/.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/handcoded.hpp"
#include "core/project.hpp"
#include "net/fault.hpp"
#include "runtime/registry.hpp"
#include "runtime/session.hpp"

namespace perfbench {

using namespace sage;

/// Monotonic host seconds.
double now_s();
/// CPU seconds used so far by every thread of this process.
double cpu_s();

/// Median of `xs` (0 when empty).
double median(std::vector<double> xs);
/// Linearly interpolated quantile, q in [0, 1] (0 when empty).
double quantile(std::vector<double> xs, double q);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `end_to_end` and `per_layer` carry the
/// BENCHMARK.json names; `detail` carries the workload-specific names
/// the generic end-to-end metrics stand for (set_ms_p50, serve_ms_p99,
/// failed_frac...), the derived limits, and sample counts.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  /// Operations attempted (data sets run, requests submitted) and the
  /// ones that failed: checksum mismatches, errors (including receive
  /// timeouts surfaced as errors) and sheds. Injected faults the
  /// runtime recovered from are not failures.
  std::uint64_t attempted = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
  std::uint64_t sheds = 0;

  std::uint64_t failed() const { return mismatches + errors + sheds; }
  /// Counts one attempted operation; a false `ok` is a mismatch.
  void check(bool ok);
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
};

/// One program the benchmark drives: an apps design at a size, the
/// buffer policy it runs under and an optional fault plan.
struct ProgramSpec {
  std::string app;  // "fft2d" or "cornerturn"
  std::size_t n = 0;
  int nodes = 0;
  runtime::BufferPolicy policy = runtime::BufferPolicy::kUniquePerFunction;
  std::shared_ptr<const net::FaultPlan> faults;
};

std::unique_ptr<model::Workspace> make_workspace(const ProgramSpec& spec);

/// The hand-coded baseline of the same design (always fault-free).
apps::HandcodedResult run_hand(const ProgramSpec& spec, int iterations);

/// Execute options the benchmark runs with: one data set per run,
/// tracing off, the always-on metrics on, inproc transport.
runtime::ExecuteOptions execute_options(const ProgramSpec& spec);

/// Host time of each set-up stage of one fresh project, milliseconds.
struct SetupTimes {
  double model_ms = 0.0;     // apps::make_*_workspace + Project
  double generate_ms = 0.0;  // Project::generate (Alter glue generation)
  double alter_compile_ms = 0.0;  // GeneratedArtifacts::compile_seconds
  double alter_execute_ms = 0.0;  // GeneratedArtifacts::execute_seconds
  double lower_ms = 0.0;     // Project::compile_program
  double open_ms = 0.0;      // Project::open_session
  double total_s = 0.0;      // first stage start to last stage end
};

struct Opened {
  std::unique_ptr<core::Project> project;
  std::unique_ptr<runtime::Session> session;
  SetupTimes times;
};

/// Builds, generates, lowers and opens one fresh project, timing each
/// stage. `open` false stops after lowering (serve registers the
/// program itself).
Opened open_program(const ProgramSpec& spec, bool open = true);

/// The standard kernels with `matrix_sink` replaced by a checking sink
/// that reports the position-weighted checksum of its input (see
/// weighted_sum), so a value that lands in the wrong place changes the
/// result. open_program installs it in every project.
runtime::FunctionRegistry checking_registry();

/// Σ w(g)·(re + 2·im) over a slice's elements, g being each element's
/// global index and w(g) a pseudo-random weight in [1, 2) that repeats
/// every 1021 positions: permuted, misrouted or untransposed data gives
/// another sum, and so does swapping re and im. `runs` are the slice's
/// global runs.
double weighted_sum(std::span<const std::complex<float>> data,
                    const std::vector<runtime::Run>& runs);

/// What a correct data set's sink reports, computed by the benchmark
/// itself: the design's whole output (the transposed test pattern, or
/// its 2D FFT through isspl::fft2d, transposed as the design leaves it)
/// reduced by weighted_sum slice by slice, as the sink threads do.
struct Expected {
  double weighted = 0.0;
  double tolerance = 0.0;  // summation-order slack: 1e-9 of Σ|terms|
  double plain = 0.0;      // runtime::block_checksum of the whole output

  /// True when a checking sink's result matches the output.
  bool matches(double sink) const;
  /// True when the hand-coded baseline's order-insensitive checksum
  /// matches the plain sum of the output: both sum the same values in
  /// different orders, so allow float rounding.
  bool matches_hand(double hand) const;
};
Expected expected_output(const ProgramSpec& spec);

/// The sink checksum of a single-set run; NaN, which matches nothing,
/// when the run reported none.
double sink_checksum(const runtime::RunStats& stats);

/// Table-1 rounds on a warm session: each round runs the hand-coded
/// baseline and a few synchronous Session::run data sets, alternating
/// which side goes first from round to round.
struct Rounds {
  std::vector<double> pct;      // per round: hand p50 vt / SAGE p50 vt x100
  std::vector<double> set_ms;   // host ms of every Session::run
  std::vector<double> sage_vt_ms;
  std::vector<double> hand_vt_ms;
};
/// Runs one round into `out`. Every SAGE set must match `expected` (a
/// faulted set included: recovered faults leave the output clean), and
/// so must the round's hand-coded checksum. `overrides` apply to the
/// SAGE sets.
void table1_round(const ProgramSpec& spec, runtime::Session& session,
                  const Expected& expected, Report& report, Rounds& out,
                  const runtime::RunOverrides& overrides = {});
/// Rounds until `budget_s` host seconds pass (at least one).
Rounds table1_rounds(const ProgramSpec& spec, runtime::Session& session,
                     double budget_s, const Expected& expected,
                     Report& report);

/// Streamed data sets: Session::submit/wait at the compiled ring depth,
/// eight tickets in flight.
struct Stream {
  std::vector<double> window_rates;  // data sets per second, per window
  std::vector<double> window_cpu_ms;  // process CPU ms per set, per window
  std::vector<double> submit_us;
  std::vector<double> wait_ms;
  std::vector<double> occupancy_max;
};
/// Streams for `seconds`, then drains, appending one window to `out`.
void stream_window(runtime::Session& session, double seconds,
                   const Expected& expected, Report& report, Stream& out,
                   const runtime::RunOverrides& overrides = {});

/// Unmeasured synchronous and streamed sets until `seconds` pass, so
/// first-touch page faults and pool growth land before timing starts.
void warm_up(runtime::Session& session, double seconds,
             const Expected& expected, Report& report);

/// Traced synchronous runs (collect_trace on), alternated with untraced
/// ones, reduced to per-set layer figures.
struct Traced {
  double kernel_vt_ms = 0.0;  // busiest node, per set
  double send_vt_ms = 0.0;
  double recv_vt_ms = 0.0;
  double copy_vt_ms = 0.0;
  double bytes_copied = 0.0;
  double bytes_moved = 0.0;
  double pool_misses = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double retries = 0.0;
  double timeouts = 0.0;
  double corruptions = 0.0;
  double trace_overhead_frac = 0.0;
  double export_ms = 0.0;  // viz::prometheus_text + viz::report
};
Traced traced_runs(runtime::Session& session, double budget_s,
                   const Expected& expected, Report& report);

/// Single-thread isspl kernels on the per-node shape of `spec`.
struct Kernels {
  double fft_rows_ms = 0.0;
  double fft_gflops = 0.0;
  double transpose_ms = 0.0;
  double fft2d_serial_ms = 0.0;
};
Kernels kernel_probes(const ProgramSpec& spec, double budget_s);

/// Per-layer reporting shared by every workload's traced run.
void report_setup_layers(const std::vector<SetupTimes>& setups,
                         double cold_alter_compile_ms, double open_ms,
                         Report& report);
void report_traced_layers(const Traced& traced, Report& report);
/// Sum of the median model, generate, lower and open stage times, ms:
/// with the set-up's other timed steps it should add up to setup_s.
double stage_sum_ms(const std::vector<SetupTimes>& setups);
void report_kernel_layers(const Kernels& kernels, Report& report);

/// Workload entry points.
void run_batch(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

/// Serve-layer probe shared by every workload's traced run: registers
/// `spec` with a serve::Server and drives a short open loop at
/// `rate` requests/s, reporting the serve.* per-layer metrics.
void serve_layer_probe(const ProgramSpec& spec, double rate, double budget_s,
                       std::uint64_t seed, const Expected& expected,
                       Report& report);

}  // namespace perfbench
