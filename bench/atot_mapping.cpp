// AToT mapping quality (paper §1.1).
//
// "AToT can be employed for total design optimization, which includes
// load balancing of CPU resources, optimizing over latency constraints,
// communication minimization and scheduling of CPUs and busses."
// This bench compares the genetic mapper against the greedy,
// round-robin, and random baselines on the benchmark designs and on a
// heterogeneous synthetic design, reporting the cost-model objective and
// the list-scheduler latency estimate for each.
//
// The mappers are deterministic: MapperTest.QualityPinnedOnBenchProblems
// (tests/atot_test.cpp) pins each objective and latency printed here,
// and the genetic mapper's result, exactly.
#include <cstdio>

#include "apps/benchmarks.hpp"
#include "apps/pipelines.hpp"
#include "atot/mapper.hpp"
#include "atot/scheduler.hpp"
#include "support/rng.hpp"

namespace {

using namespace sage;

void report(const char* label, const atot::MappingProblem& problem) {
  const atot::Assignment random =
      atot::random_mapping(problem, support::Rng::kDefaultSeed);
  const atot::Assignment round_robin = atot::round_robin_mapping(problem);
  const atot::Assignment greedy = atot::greedy_mapping(problem);
  const atot::GeneticResult ga = atot::genetic_mapping(problem);

  auto row = [&](const char* name, const atot::Assignment& a) {
    const atot::CostBreakdown cost = atot::evaluate(problem, a);
    const atot::ScheduleResult sched = atot::list_schedule(problem, a);
    std::printf("  %-12s objective=%10.6f  max_load=%10.6f  comm=%10.6f  "
                "latency=%10.6f\n",
                name, cost.objective, cost.max_load, cost.total_comm,
                sched.latency);
    std::printf("csv,atot,%s,%s,%.8f,%.8f,%.8f,%.8f\n", label, name,
                cost.objective, cost.max_load, cost.total_comm,
                sched.latency);
  };

  std::printf("%s (%d tasks on %d processors)\n", label, problem.task_count(),
              problem.proc_count());
  row("random", random);
  row("round-robin", round_robin);
  row("greedy", greedy);
  row("genetic", ga.best);
  std::printf("  genetic ran %d generations\n\n", ga.generations_run);
}

}  // namespace

int main() {
  std::printf("AToT mapping quality: GA vs baselines\n");
  std::printf("(objective = load + comm + 0.5*imbalance, cost-model seconds)\n\n");

  report("fft2d-1024-8n",
         atot::build_problem(*apps::make_fft2d_workspace(1024, 8)));
  report("cornerturn-512-4n",
         atot::build_problem(*apps::make_cornerturn_workspace(512, 4)));
  report("synthetic-hetero",
         atot::build_problem(*apps::make_synthetic_hetero_workspace()));
  return 0;
}
