// Fault-injection overhead and recovery latency.
//
// Three questions this bench answers for docs/RUNTIME.md and
// EXPERIMENTS.md:
//   1. What does an *inactive* FaultPlan cost? (contract: nothing --
//      the run takes the exact unfaulted code path)
//   2. What does *fault-ready* mode cost when no fault fires? An
//      active plan sends every transfer over the reliable path
//      (an XXH64 body checksum on both ends, carried out of band;
//      16 bytes of modeled frame per message on the wire), so this
//      isolates the price of being recoverable.
//   3. What does recovery cost? Session::recover() host time for a
//      dead-node remap, and the virtual-time latency of the degraded
//      run against the full-machine baseline.
#include <chrono>
#include <cstdio>
#include <memory>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "net/fault.hpp"

namespace {

using namespace sage;

struct Sample {
  double latency_ms = 0.0;  // mean virtual per-iteration latency
  double host_ms = 0.0;     // mean host wall-clock per run
};

Sample measure(runtime::Session& session, int runs) {
  Sample sample;
  int latencies = 0;
  for (int r = 0; r < runs; ++r) {
    const runtime::RunStats stats = session.run();
    sample.host_ms += stats.host_seconds * 1e3 / runs;
    for (double lat : stats.latencies) {
      sample.latency_ms += lat * 1e3;
      ++latencies;
    }
  }
  sample.latency_ms /= latencies;
  return sample;
}

Sample measure_config(std::size_t n, int nodes,
                      std::shared_ptr<const net::FaultPlan> plan, int runs) {
  core::Project project(apps::make_cornerturn_workspace(n, nodes));
  runtime::ExecuteOptions options;
  options.iterations = 4;
  options.collect_trace = false;
  options.fault_plan = std::move(plan);
  auto session = project.open_session(options);
  (void)session->run();  // warm-up: thread spawn + first-touch
  return measure(*session, runs);
}

}  // namespace

int main() {
  constexpr int kRuns = 10;
  std::printf("Fault-path overhead -- Distributed Corner Turn, 4 nodes\n");
  std::printf("baseline: no plan; inactive: empty plan attached;\n");
  std::printf("armed: active plan, zero fault probability (checksummed\n");
  std::printf("transfers, no faults fire); chaos: 5%% drop + 5%% corrupt.\n\n");
  std::printf("%-8s %14s %12s %14s %12s\n", "Array", "Mode", "Lat(ms)",
              "vs base", "Host(ms)");

  auto armed_plan = [] {
    auto plan = std::make_shared<net::FaultPlan>();
    net::LinkFaultRule rule;
    rule.kind = net::FaultKind::kDrop;
    rule.probability = 0.0;
    plan->link_rules.push_back(rule);
    return plan;
  };
  auto chaos_plan = [] {
    auto plan = std::make_shared<net::FaultPlan>();
    net::LinkFaultRule drop;
    drop.kind = net::FaultKind::kDrop;
    drop.probability = 0.05;
    plan->link_rules.push_back(drop);
    net::LinkFaultRule corrupt;
    corrupt.kind = net::FaultKind::kCorrupt;
    corrupt.probability = 0.05;
    corrupt.corrupt_bytes = 4;
    plan->link_rules.push_back(corrupt);
    return plan;
  };

  for (const std::size_t n : {256, 512}) {
    const Sample base = measure_config(n, 4, nullptr, kRuns);
    const Sample inactive =
        measure_config(n, 4, std::make_shared<const net::FaultPlan>(), kRuns);
    const Sample armed = measure_config(n, 4, armed_plan(), kRuns);
    const Sample chaos = measure_config(n, 4, chaos_plan(), kRuns);

    const char* label[] = {"baseline", "inactive-plan", "armed", "chaos"};
    const Sample* samples[] = {&base, &inactive, &armed, &chaos};
    for (int i = 0; i < 4; ++i) {
      std::printf("%-8zu %14s %12.3f %+13.1f%% %12.3f\n", n, label[i],
                  samples[i]->latency_ms,
                  (samples[i]->latency_ms / base.latency_ms - 1.0) * 100.0,
                  samples[i]->host_ms);
    }
    std::printf("\n");
  }

  // Recovery: host cost of the in-session remap and the degraded run's
  // virtual latency against the 4-node baseline.
  std::printf("Recovery -- kill node 3 of 4, corner turn 512^2\n");
  const Sample base = measure_config(512, 4, nullptr, kRuns);
  core::Project project(apps::make_cornerturn_workspace(512, 4));
  runtime::ExecuteOptions options;
  options.iterations = 4;
  options.collect_trace = false;
  auto session = project.open_session(options);
  (void)session->run();

  const auto t0 = std::chrono::steady_clock::now();
  const runtime::RecoveryReport report = session->recover({3});
  const auto t1 = std::chrono::steady_clock::now();
  const double recover_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const Sample degraded = measure(*session, kRuns);

  std::printf("recover() host time: %.3f ms (%d threads moved)\n", recover_ms,
              report.moved_threads);
  std::printf("degraded latency: %.3f ms vs %.3f ms baseline (%+.1f%%)\n",
              degraded.latency_ms, base.latency_ms,
              (degraded.latency_ms / base.latency_ms - 1.0) * 100.0);
  return 0;
}
