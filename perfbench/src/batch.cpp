// sagebench -- the batch workloads: one Table-1 design on 4 nodes,
// driven through a warm session.
//
//   fft2d-1024x4              kernel compute (isspl) dominates
//   cornerturn-1024x4-shared  pack/unpack, fabric traffic and credits
//   cornerturn-1024x4-faults  the same over the framed, checksummed ARQ
//                             path (seeded drop + corrupt on every link)
#include <stdexcept>

#include "bench.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

/// Per-link fault rates of cornerturn-1024x4-faults. They stay fixed so
/// the work per set is comparable across seeds; the seed chooses which
/// messages the plan hits. A plan hits the same messages in every set
/// (link sequence numbers restart with each run), so every Table-1 round
/// and streaming window draws a plan of its own from the workload seed:
/// one run then averages over many fault patterns, not one.
constexpr double kDropRate = 0.03;
constexpr double kCorruptRate = 0.03;
/// Unmeasured warm-up after set-up: the first second of sets on a fresh
/// session runs several times slower (first-touch page faults).
constexpr double kWarmUpSeconds = 1.0;
/// Length of one streaming window between Table-1 rounds.
constexpr double kWindowSeconds = 0.1;

std::shared_ptr<const net::FaultPlan> fault_plan(std::uint64_t seed,
                                                 std::uint64_t index = 0) {
  auto plan = std::make_shared<net::FaultPlan>();
  std::uint64_t state = seed;
  plan->seed = support::splitmix64(state) ^ index;
  net::LinkFaultRule drop;
  drop.kind = net::FaultKind::kDrop;
  drop.probability = kDropRate;
  net::LinkFaultRule corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.probability = kCorruptRate;
  corrupt.corrupt_bytes = 8;
  plan->link_rules = {drop, corrupt};
  return plan;
}

ProgramSpec spec_for(const Args& args) {
  ProgramSpec spec;
  spec.n = 1024;
  spec.nodes = 4;
  if (args.workload == "fft2d-1024x4") {
    spec.app = "fft2d";
  } else if (args.workload == "cornerturn-1024x4-shared") {
    spec.app = "cornerturn";
    spec.policy = runtime::BufferPolicy::kShared;
  } else if (args.workload == "cornerturn-1024x4-faults") {
    spec.app = "cornerturn";
    spec.policy = runtime::BufferPolicy::kShared;
    spec.faults = fault_plan(args.seed);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  return spec;
}

}  // namespace

void run_batch(const Args& args, Report& report) {
  const ProgramSpec spec = spec_for(args);
  const double budget = args.seconds;

  // Set-up: fresh projects, each built, generated, lowered and opened.
  // The last one stays open for the measurements.
  constexpr int kSetups = 21;
  std::vector<SetupTimes> setups;
  std::vector<double> totals;
  std::vector<double> open_ms;
  Opened live;
  for (int k = 0; k < kSetups; ++k) {
    live = Opened{};
    live = open_program(spec);
    setups.push_back(live.times);
    totals.push_back(live.times.total_s);
    open_ms.push_back(live.times.open_ms);
  }
  runtime::Session& session = *live.session;

  // What every set's sink must report: the clean output, computed here
  // through isspl. Faulted sets must reproduce it too.
  const Expected expected = expected_output(spec);

  warm_up(session, kWarmUpSeconds, expected, report);

  if (!args.trace) {
    // Table-1 rounds and streaming windows alternate for the whole run,
    // so host contention that comes and goes weighs on both alike.
    Rounds rounds;
    Stream stream;
    const double end = now_s() + budget;
    std::uint64_t cycle = 0;
    do {
      runtime::RunOverrides overrides;
      if (spec.faults) overrides.fault_plan = fault_plan(args.seed, ++cycle);
      table1_round(spec, session, expected, report, rounds, overrides);
      stream_window(session, kWindowSeconds, expected, report, stream,
                    overrides);
    } while (now_s() < end);
    const double vt_p50 = median(rounds.sage_vt_ms);
    const double vt_p95 = quantile(rounds.sage_vt_ms, 0.95);
    const double cpu_ms = median(stream.window_cpu_ms);
    report.e2e("setup_s", median(totals), "s");
    report.e2e("pct_of_hand", median(rounds.pct), "%");
    report.e2e("vt_ms_p50", vt_p50, "ms");
    report.e2e("cpu_ms_per_set", cpu_ms, "ms");
    report.note("vt_ms_p95", vt_p95, "ms");
    report.note("set_ms_p50", median(rounds.set_ms), "ms");
    report.note("set_ms_p95", quantile(rounds.set_ms, 0.95), "ms");
    report.note("sets_per_s", median(stream.window_rates), "1/s");
    report.note("set_samples", static_cast<double>(rounds.set_ms.size()),
                "count");
    report.note("table1_rounds", static_cast<double>(rounds.pct.size()),
                "count");
    report.note("stream_windows",
                static_cast<double>(stream.window_rates.size()), "count");
    return;
  }

  report_setup_layers(setups, setups.front().alter_compile_ms,
                      median(open_ms), report);
  report.note("setup_s", median(totals), "s");
  report.note("setup_stage_sum_s", stage_sum_ms(setups) * 1e-3, "s");
  const Rounds rounds =
      table1_rounds(spec, session, 0.25 * budget, expected, report);
  report.layer("hand.latency_vt_ms_p50", median(rounds.hand_vt_ms), "ms");
  report.layer("runtime.latency_vt_ms_p50", median(rounds.sage_vt_ms), "ms");
  const double run_ms = median(rounds.set_ms);
  report.layer("runtime.run_ms", run_ms, "ms");
  Stream stream;
  stream_window(session, 0.15 * budget, expected, report, stream);
  report.layer("runtime.submit_us", median(stream.submit_us), "us");
  report.layer("runtime.wait_ms", median(stream.wait_ms), "ms");
  report.layer("runtime.occupancy_max", median(stream.occupancy_max), "ratio");
  const Traced traced = traced_runs(session, 0.25 * budget, expected, report);
  report_traced_layers(traced, report);
  report_kernel_layers(kernel_probes(spec, 0.1 * budget), report);
  // Half the solo capacity of a one-session fleet.
  live = Opened{};
  serve_layer_probe(spec, 0.5 * 1e3 / run_ms, 0.15 * budget, args.seed,
                    expected, report);
}

}  // namespace perfbench
