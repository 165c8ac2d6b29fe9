// sagebench -- measurements shared by every workload: fresh-project
// set-up, Table-1 rounds, streaming, traced runs and kernel probes.
#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "apps/benchmarks.hpp"
#include "bench.hpp"
#include "isspl/fft.hpp"
#include "isspl/transpose.hpp"
#include "runtime/registry.hpp"
#include "support/rng.hpp"
#include "viz/exporters.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

void Report::check(bool ok) {
  ++attempted;
  if (!ok) ++mismatches;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer.push_back({name, value, unit});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  detail.push_back({name, value, unit});
}

std::unique_ptr<model::Workspace> make_workspace(const ProgramSpec& spec) {
  if (spec.app == "fft2d") return apps::make_fft2d_workspace(spec.n, spec.nodes);
  return apps::make_cornerturn_workspace(spec.n, spec.nodes);
}

apps::HandcodedResult run_hand(const ProgramSpec& spec, int iterations) {
  apps::HandcodedOptions options;
  options.iterations = iterations;
  if (spec.app == "fft2d") {
    return apps::run_fft2d_handcoded(spec.n, spec.nodes, options);
  }
  return apps::run_cornerturn_handcoded(spec.n, spec.nodes, options);
}

runtime::ExecuteOptions execute_options(const ProgramSpec& spec) {
  runtime::ExecuteOptions options;
  options.buffer_policy = spec.policy;
  options.iterations = 1;
  options.collect_trace = false;
  options.fault_plan = spec.faults;
  return options;
}

Opened open_program(const ProgramSpec& spec, bool open) {
  static const runtime::FunctionRegistry registry = checking_registry();
  Opened out;
  const double t0 = now_s();
  out.project = std::make_unique<core::Project>(make_workspace(spec));
  out.project->set_registry(registry);
  const double t1 = now_s();
  const codegen::GeneratedArtifacts& artifacts = out.project->generate();
  const double t2 = now_s();
  const runtime::ExecuteOptions options = execute_options(spec);
  (void)out.project->compile_program(options);
  const double t3 = now_s();
  if (open) out.session = out.project->open_session(options);
  const double t4 = now_s();
  out.times.model_ms = (t1 - t0) * 1e3;
  out.times.generate_ms = (t2 - t1) * 1e3;
  out.times.alter_compile_ms = artifacts.compile_seconds * 1e3;
  out.times.alter_execute_ms = artifacts.execute_seconds * 1e3;
  out.times.lower_ms = (t3 - t2) * 1e3;
  out.times.open_ms = (t4 - t3) * 1e3;
  out.times.total_s = t4 - t0;
  return out;
}

namespace {

/// Position weights repeat with a prime period, so no power-of-two
/// stride of the designs maps two positions onto one weight; a table
/// keeps the checking sink as cheap as runtime::block_checksum.
constexpr std::size_t kWeightPeriod = 1021;

const std::array<double, kWeightPeriod>& weight_table() {
  static const std::array<double, kWeightPeriod> table = [] {
    std::array<double, kWeightPeriod> t{};
    std::uint64_t state = 0x5eed;
    for (double& w : t) {
      const std::uint64_t x = support::splitmix64(state);
      w = 1.0 + static_cast<double>(static_cast<std::int64_t>(x >> 40)) *
                    0x1p-24;
    }
    return t;
  }();
  return table;
}

void checking_sink(runtime::KernelContext& ctx) {
  const runtime::PortSlice& in = ctx.in("in");
  ctx.set_result(weighted_sum(in.as<isspl::Complex>(), in.runs));
}

}  // namespace

runtime::FunctionRegistry checking_registry() {
  runtime::FunctionRegistry registry = runtime::standard_registry();
  registry.add("matrix_sink", checking_sink);
  return registry;
}

double weighted_sum(std::span<const isspl::Complex> data,
                    const std::vector<runtime::Run>& runs) {
  const std::array<double, kWeightPeriod>& weight = weight_table();
  double acc = 0.0;
  std::size_t local = 0;
  for (const runtime::Run& run : runs) {
    const std::size_t end = std::min(data.size(), local + run.length);
    std::size_t w = run.global_offset % kWeightPeriod;
    for (; local < end; ++local) {
      const isspl::Complex v = data[local];
      acc += weight[w] * (static_cast<double>(v.real()) +
                          2.0 * static_cast<double>(v.imag()));
      if (++w == kWeightPeriod) w = 0;
    }
  }
  return acc;
}

bool Expected::matches(double sink) const {
  return std::abs(sink - weighted) <= tolerance;
}

bool Expected::matches_hand(double hand) const {
  return std::abs(hand - plain) <= 1e-4 * std::max(1.0, std::abs(plain));
}

Expected expected_output(const ProgramSpec& spec) {
  using isspl::Complex;
  const std::size_t n = spec.n;
  std::vector<Complex> input(n * n);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = runtime::test_pattern(i, 0);
  }
  // Both designs leave the matrix transposed: the corner turn is the
  // transpose, and fft2d's column FFTs run as row FFTs of the turned
  // matrix. isspl::fft2d returns the 2D FFT untransposed.
  if (spec.app == "fft2d") isspl::fft2d(input, n, n);
  std::vector<Complex> output(n * n);
  isspl::transpose(std::span<const Complex>(input), std::span<Complex>(output),
                   n, n);

  // The sink is striped by rows: thread t holds one run of n/nodes rows.
  Expected out;
  double magnitude = 0.0;
  const std::size_t block = n * n / static_cast<std::size_t>(spec.nodes);
  for (int t = 0; t < spec.nodes; ++t) {
    const std::size_t offset = static_cast<std::size_t>(t) * block;
    out.weighted += weighted_sum(
        std::span<const Complex>(output).subspan(offset, block),
        {runtime::Run{offset, block}});
  }
  for (std::size_t g = 0; g < output.size(); ++g) {
    const Complex v = output[g];
    magnitude += weight_table()[g % kWeightPeriod] *
                 (std::abs(static_cast<double>(v.real())) +
                  2.0 * std::abs(static_cast<double>(v.imag())));
  }
  out.tolerance = 1e-9 * magnitude;
  out.plain = runtime::block_checksum(output);
  return out;
}

double sink_checksum(const runtime::RunStats& stats) {
  const auto it = stats.results.find("sink");
  if (it == stats.results.end() || it->second.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return it->second.front();
}

namespace {

/// Runs `body`, counting an exception as one failed operation.
template <typename F>
void guarded(Report& report, F&& body) {
  try {
    body();
  } catch (const std::exception&) {
    ++report.attempted;
    ++report.errors;
  }
}

/// Per-set totals of one trace's spans on its busiest node.
struct Spans {
  double kernel = 0.0, send = 0.0, recv = 0.0, copy = 0.0;
  double total() const { return kernel + send + recv + copy; }
};

Spans busiest_node_spans(const viz::Trace& trace) {
  std::map<int, Spans> by_node;
  // Function spans are start/end instant pairs keyed by
  // (node, function, thread, iteration).
  std::map<std::tuple<int, int, int, int>, double> open;
  for (const viz::Event& e : trace.events()) {
    Spans& s = by_node[e.node];
    switch (e.kind) {
      case viz::EventKind::kFunctionStart:
        open[{e.node, e.function_id, e.thread, e.iteration}] = e.start_vt;
        break;
      case viz::EventKind::kFunctionEnd: {
        const auto it = open.find({e.node, e.function_id, e.thread,
                                   e.iteration});
        if (it != open.end()) {
          s.kernel += e.end_vt - it->second;
          open.erase(it);
        }
        break;
      }
      case viz::EventKind::kSend: s.send += e.end_vt - e.start_vt; break;
      case viz::EventKind::kReceive: s.recv += e.end_vt - e.start_vt; break;
      case viz::EventKind::kBufferCopy: s.copy += e.end_vt - e.start_vt; break;
      default: break;
    }
  }
  Spans best;
  for (const auto& [node, spans] : by_node) {
    if (spans.total() > best.total()) best = spans;
  }
  return best;
}

}  // namespace

void table1_round(const ProgramSpec& spec, runtime::Session& session,
                  const Expected& expected, Report& report, Rounds& out,
                  const runtime::RunOverrides& overrides) {
  constexpr int kHandIterations = 3;
  constexpr int kSageSets = 6;
  std::vector<double> hand_vt;
  std::vector<double> sage_vt;
  std::vector<double> sage_sums;
  double hand_sum = std::numeric_limits<double>::quiet_NaN();
  const auto hand_side = [&] {
    guarded(report, [&] {
      const apps::HandcodedResult hand = run_hand(spec, kHandIterations);
      for (double lat : hand.latencies) hand_vt.push_back(lat * 1e3);
      hand_sum = hand.checksums.front();
    });
  };
  const auto sage_side = [&] {
    for (int s = 0; s < kSageSets; ++s) {
      guarded(report, [&] {
        const runtime::RunStats stats = session.run(overrides);
        out.set_ms.push_back(stats.host_seconds * 1e3);
        for (double lat : stats.latencies) sage_vt.push_back(lat * 1e3);
        sage_sums.push_back(sink_checksum(stats));
      });
    }
  };
  // Alternate which side runs first to cancel drift within a round.
  if (out.pct.size() % 2 == 0) {
    hand_side();
    sage_side();
  } else {
    sage_side();
    hand_side();
  }
  // The round's hand-coded output and every SAGE set against the
  // output the benchmark computed.
  if (!std::isnan(hand_sum)) report.check(expected.matches_hand(hand_sum));
  for (const double sum : sage_sums) report.check(expected.matches(sum));
  if (hand_vt.empty() || sage_vt.empty()) return;
  out.hand_vt_ms.insert(out.hand_vt_ms.end(), hand_vt.begin(), hand_vt.end());
  out.sage_vt_ms.insert(out.sage_vt_ms.end(), sage_vt.begin(), sage_vt.end());
  out.pct.push_back(median(hand_vt) / median(sage_vt) * 100.0);
}

Rounds table1_rounds(const ProgramSpec& spec, runtime::Session& session,
                     double budget_s, const Expected& expected,
                     Report& report) {
  Rounds out;
  const double end = now_s() + budget_s;
  do {
    table1_round(spec, session, expected, report, out);
  } while (now_s() < end);
  return out;
}

void stream_window(runtime::Session& session, double seconds,
                   const Expected& expected, Report& report, Stream& out,
                   const runtime::RunOverrides& overrides) {
  constexpr int kInFlight = 8;
  std::vector<runtime::Ticket> in_flight;
  int completed = 0;
  const auto submit = [&] {
    const double t = now_s();
    in_flight.push_back(session.submit(overrides));
    out.submit_us.push_back((now_s() - t) * 1e6);
  };
  const auto collect = [&] {
    const double t = now_s();
    const runtime::RunStats stats = session.wait(in_flight.front());
    out.wait_ms.push_back((now_s() - t) * 1e3);
    in_flight.erase(in_flight.begin());
    report.check(expected.matches(sink_checksum(stats)));
    double occupancy = 0.0;
    for (const auto& [fn, value] : stats.occupancy) {
      occupancy = std::max(occupancy, value);
    }
    out.occupancy_max.push_back(occupancy);
    ++completed;
  };
  guarded(report, [&] {
    const double start = now_s();
    const double cpu_start = cpu_s();
    const double end = start + seconds;
    for (int i = 0; i < kInFlight; ++i) submit();
    while (now_s() < end) {
      collect();
      submit();
    }
    while (!in_flight.empty()) collect();
    out.window_rates.push_back(completed / (now_s() - start));
    out.window_cpu_ms.push_back((cpu_s() - cpu_start) * 1e3 / completed);
  });
}

void warm_up(runtime::Session& session, double seconds,
             const Expected& expected, Report& report) {
  const double end = now_s() + seconds;
  Stream ignored;
  do {
    guarded(report, [&] {
      report.check(expected.matches(sink_checksum(session.run())));
    });
    stream_window(session, 0.0, expected, report, ignored);
  } while (now_s() < end);
}

Traced traced_runs(runtime::Session& session, double budget_s,
                   const Expected& expected, Report& report) {
  runtime::RunOverrides traced;
  traced.collect_trace = true;
  std::vector<double> kernel, send, recv, copy, copied, moved, misses,
      messages, bytes, retries, timeouts, corruptions, traced_ms,
      untraced_ms, export_ms;
  const double end = now_s() + budget_s;
  for (int pair = 0; pair == 0 || now_s() < end; ++pair) {
    guarded(report, [&] {
      // Alternate which of the pair runs first to cancel drift.
      runtime::RunStats plain;
      runtime::RunStats stats;
      if (pair % 2 == 0) {
        plain = session.run();
        stats = session.run(traced);
      } else {
        stats = session.run(traced);
        plain = session.run();
      }
      report.check(expected.matches(sink_checksum(plain)));
      report.check(expected.matches(sink_checksum(stats)));
      untraced_ms.push_back(plain.host_seconds * 1e3);
      traced_ms.push_back(stats.host_seconds * 1e3);

      const Spans spans = busiest_node_spans(stats.trace);
      kernel.push_back(spans.kernel * 1e3);
      send.push_back(spans.send * 1e3);
      recv.push_back(spans.recv * 1e3);
      copy.push_back(spans.copy * 1e3);
      copied.push_back(static_cast<double>(stats.data_plane.bytes_copied));
      moved.push_back(static_cast<double>(stats.data_plane.bytes_moved));
      misses.push_back(static_cast<double>(stats.data_plane.pool_misses));
      messages.push_back(static_cast<double>(stats.fabric_messages));
      bytes.push_back(static_cast<double>(stats.fabric_bytes));
      retries.push_back(static_cast<double>(stats.faults.retries));
      timeouts.push_back(static_cast<double>(stats.faults.timeouts));
      corruptions.push_back(
          static_cast<double>(stats.faults.corruptions_detected));

      const double t = now_s();
      const std::string prom = viz::prometheus_text(stats.metrics);
      const std::string text = viz::report(stats.trace, stats.metrics);
      export_ms.push_back((now_s() - t) * 1e3);
      report.check(!prom.empty() && !text.empty());
    });
  }
  Traced out;
  out.kernel_vt_ms = median(kernel);
  out.send_vt_ms = median(send);
  out.recv_vt_ms = median(recv);
  out.copy_vt_ms = median(copy);
  out.bytes_copied = median(copied);
  out.bytes_moved = median(moved);
  out.pool_misses = median(misses);
  out.messages = median(messages);
  out.bytes = median(bytes);
  out.retries = median(retries);
  out.timeouts = median(timeouts);
  out.corruptions = median(corruptions);
  const double base = median(untraced_ms);
  out.trace_overhead_frac = base > 0.0 ? median(traced_ms) / base - 1.0 : 0.0;
  out.export_ms = median(export_ms);
  return out;
}

Kernels kernel_probes(const ProgramSpec& spec, double budget_s) {
  using isspl::Complex;
  const std::size_t n = spec.n;
  const std::size_t rows = n / static_cast<std::size_t>(spec.nodes);
  std::vector<Complex> block(rows * n);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = runtime::test_pattern(i, 0);
  }
  std::vector<Complex> out_block(block.size());
  std::vector<Complex> source(n * n);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = runtime::test_pattern(i, 0);
  }
  std::vector<Complex> matrix(n * n);
  const isspl::FftPlan plan(n, isspl::FftDirection::kForward);

  // Each probe gets a third of the budget; the median of its repeats is
  // reported. `prepare` runs untimed before each repeat.
  const auto time_ms = [&](auto&& body, auto&& prepare) {
    std::vector<double> samples;
    const double end = now_s() + budget_s / 3.0;
    while (samples.size() < 3 || now_s() < end) {
      prepare();
      const double t = now_s();
      body();
      samples.push_back((now_s() - t) * 1e3);
    }
    return median(samples);
  };
  const auto nothing = [] {};

  Kernels out;
  out.fft_rows_ms = time_ms([&] {
    plan.execute_rows(std::span<const Complex>(block), out_block, rows);
  }, nothing);
  const double flops = 5.0 * static_cast<double>(n) *
                       std::log2(static_cast<double>(n)) *
                       static_cast<double>(rows);
  out.fft_gflops = flops / (out.fft_rows_ms * 1e-3) * 1e-9;
  // The local corner-turn block: n rows of n/nodes columns.
  out.transpose_ms = time_ms([&] {
    isspl::transpose(std::span<const Complex>(block),
                     std::span<Complex>(out_block), n, rows);
  }, nothing);
  out.fft2d_serial_ms = time_ms([&] { isspl::fft2d(matrix, n, n); },
                                [&] { matrix = source; });
  return out;
}

void report_setup_layers(const std::vector<SetupTimes>& setups,
                         double cold_alter_compile_ms, double open_ms,
                         Report& report) {
  std::vector<double> model, generate, execute, lower;
  for (const SetupTimes& t : setups) {
    model.push_back(t.model_ms);
    generate.push_back(t.generate_ms);
    execute.push_back(t.alter_execute_ms);
    lower.push_back(t.lower_ms);
  }
  report.layer("model.build_ms", median(model), "ms");
  // The generator's bytecode is compiled once per process, so only the
  // first set-up pays it.
  report.layer("alter.compile_ms", cold_alter_compile_ms, "ms");
  report.layer("alter.execute_ms", median(execute), "ms");
  report.layer("codegen.generate_ms", median(generate), "ms");
  report.layer("runtime.lower_ms", median(lower), "ms");
  report.layer("runtime.open_ms", open_ms, "ms");
}

double stage_sum_ms(const std::vector<SetupTimes>& setups) {
  std::vector<double> model, generate, lower, open;
  for (const SetupTimes& t : setups) {
    model.push_back(t.model_ms);
    generate.push_back(t.generate_ms);
    lower.push_back(t.lower_ms);
    open.push_back(t.open_ms);
  }
  return median(model) + median(generate) + median(lower) + median(open);
}

void report_traced_layers(const Traced& traced, Report& report) {
  report.layer("runtime.kernel_vt_ms", traced.kernel_vt_ms, "ms");
  report.layer("runtime.send_vt_ms", traced.send_vt_ms, "ms");
  report.layer("runtime.recv_vt_ms", traced.recv_vt_ms, "ms");
  report.layer("runtime.copy_vt_ms", traced.copy_vt_ms, "ms");
  report.layer("dataplane.bytes_copied", traced.bytes_copied, "bytes");
  report.layer("dataplane.bytes_moved", traced.bytes_moved, "bytes");
  report.layer("dataplane.pool_misses", traced.pool_misses, "count");
  report.layer("net.messages", traced.messages, "count");
  report.layer("net.bytes", traced.bytes, "bytes");
  report.layer("net.retries", traced.retries, "count");
  report.layer("net.timeouts", traced.timeouts, "count");
  report.layer("net.corruptions_detected", traced.corruptions, "count");
  report.layer("viz.export_ms", traced.export_ms, "ms");
  report.layer("viz.trace_overhead_frac", traced.trace_overhead_frac, "ratio");
}

void report_kernel_layers(const Kernels& kernels, Report& report) {
  report.layer("isspl.fft_rows_ms", kernels.fft_rows_ms, "ms");
  report.layer("isspl.fft_gflops", kernels.fft_gflops, "GFLOP/s");
  report.layer("isspl.transpose_ms", kernels.transpose_ms, "ms");
  report.layer("isspl.fft2d_serial_ms", kernels.fft2d_serial_ms, "ms");
}

}  // namespace perfbench
