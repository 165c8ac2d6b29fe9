// AToT tests: problem construction from designs, the cost model, the
// genetic mapper against its baselines, the list scheduler, and writing
// assignments back into the mapping model.
#include <gtest/gtest.h>

#include <array>

#include "apps/benchmarks.hpp"
#include "apps/pipelines.hpp"
#include "atot/cost_model.hpp"
#include "atot/mapper.hpp"
#include "atot/scheduler.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sage::atot {
namespace {

MappingProblem fft_problem(std::size_t n = 64, int nodes = 4) {
  return build_problem(*apps::make_fft2d_workspace(n, nodes));
}

TEST(ProblemTest, TasksAreFunctionThreads) {
  const MappingProblem problem = fft_problem(64, 4);
  EXPECT_EQ(problem.task_count(), 5 * 4);
  EXPECT_EQ(problem.proc_count(), 4);
  EXPECT_EQ(problem.tasks[0].function, "src");
  EXPECT_TRUE(problem.tasks[0].is_source);
  EXPECT_TRUE(problem.tasks.back().is_sink);
  // Work is split across threads.
  const Task& fft_task = problem.tasks[4];  // first fft_rows thread
  EXPECT_EQ(fft_task.function, "fft_rows");
  EXPECT_NEAR(fft_task.work_flops, 64.0 * 64 * 10 / 4, 1e-6);
}

TEST(ProblemTest, TrafficMatchesStripingPlans) {
  const MappingProblem problem = fft_problem(64, 4);
  // Row->row arcs contribute 4 aligned edges each (3 such arcs), the
  // corner-turn arc contributes 16.
  std::size_t aligned = 0, corner = 0;
  for (const Traffic& edge : problem.traffic) {
    const Task& src = problem.tasks[static_cast<std::size_t>(edge.src_task)];
    if (src.function == "fft_rows") {
      ++corner;
      EXPECT_EQ(edge.bytes, (64 / 4) * (64 / 4) * 8u);
    } else {
      ++aligned;
    }
  }
  EXPECT_EQ(corner, 16u);
  EXPECT_EQ(aligned, 12u);
}

TEST(CostTest, ComputeScalesWithProcessorSpeed) {
  MappingProblem problem = fft_problem();
  problem.proc_flops = {1e6, 2e6, 1e6, 1e6};
  const double slow = problem.compute_seconds(4, 0);
  const double fast = problem.compute_seconds(4, 1);
  EXPECT_NEAR(slow, 2 * fast, 1e-12);
}

TEST(CostTest, CommFreeWhenColocated) {
  const MappingProblem problem = fft_problem();
  const Traffic& edge = problem.traffic.front();
  EXPECT_EQ(problem.comm_seconds(edge, 1, 1), 0.0);
  EXPECT_GT(problem.comm_seconds(edge, 0, 1), 0.0);
}

TEST(CostTest, EvaluateBreakdownConsistent) {
  const MappingProblem problem = fft_problem();
  const Assignment everything_on_zero(
      static_cast<std::size_t>(problem.task_count()), 0);
  const CostBreakdown cost = evaluate(problem, everything_on_zero);
  EXPECT_EQ(cost.total_comm, 0.0);  // all co-located
  EXPECT_GT(cost.max_load, 0.0);
  // One processor holds everything: imbalance = max - max/P.
  EXPECT_NEAR(cost.imbalance, cost.max_load * 3.0 / 4.0, 1e-12);

  const Assignment spread = round_robin_mapping(problem);
  const CostBreakdown spread_cost = evaluate(problem, spread);
  EXPECT_LT(spread_cost.max_load, cost.max_load);
  EXPECT_GT(spread_cost.total_comm, 0.0);
}

TEST(CostTest, BadAssignmentsRejected) {
  const MappingProblem problem = fft_problem();
  EXPECT_THROW(evaluate(problem, Assignment{0}), Error);  // wrong size
  Assignment bad(static_cast<std::size_t>(problem.task_count()), 0);
  bad[0] = 99;
  EXPECT_THROW(evaluate(problem, bad), Error);
}

TEST(MapperTest, BaselinesAreValid) {
  const MappingProblem problem = fft_problem();
  for (const Assignment& a :
       {round_robin_mapping(problem), greedy_mapping(problem),
        random_mapping(problem, 3)}) {
    ASSERT_EQ(static_cast<int>(a.size()), problem.task_count());
    for (int p : a) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, problem.proc_count());
    }
  }
}

TEST(MapperTest, GeneticNeverWorseThanSeededBaselines) {
  const MappingProblem problem = fft_problem(128, 8);
  GeneticOptions options;
  options.generations = 40;
  const GeneticResult result = genetic_mapping(problem, options);
  const double greedy = evaluate(problem, greedy_mapping(problem)).objective;
  const double rr = evaluate(problem, round_robin_mapping(problem)).objective;
  EXPECT_LE(result.cost.objective, greedy + 1e-12);
  EXPECT_LE(result.cost.objective, rr + 1e-12);
}

TEST(MapperTest, GeneticBeatsRandomOnLumpyProblem) {
  // Heterogeneous work: GA should clearly beat a random assignment.
  MappingProblem problem = fft_problem(128, 8);
  for (std::size_t i = 0; i < problem.tasks.size(); ++i) {
    problem.tasks[i].work_flops *= (i % 3 == 0) ? 10.0 : 1.0;
  }
  const GeneticResult ga = genetic_mapping(problem);
  const double random_obj =
      evaluate(problem, random_mapping(problem, 99)).objective;
  EXPECT_LT(ga.cost.objective, random_obj);
}

TEST(MapperTest, DeterministicForFixedSeed) {
  const MappingProblem problem = fft_problem();
  GeneticOptions options;
  options.generations = 15;
  const GeneticResult a = genetic_mapping(problem, options);
  const GeneticResult b = genetic_mapping(problem, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.history, b.history);
}

TEST(MapperTest, HistoryIsMonotonicallyNonIncreasing) {
  const MappingProblem problem = fft_problem(128, 8);
  const GeneticResult result = genetic_mapping(problem);
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_LE(result.history[g], result.history[g - 1]);
  }
}

TEST(SchedulerTest, RespectsDependencies) {
  const MappingProblem problem = fft_problem();
  const Assignment assignment = round_robin_mapping(problem);
  const ScheduleResult schedule = list_schedule(problem, assignment);

  for (const Traffic& edge : problem.traffic) {
    const auto& src =
        schedule.timeline[static_cast<std::size_t>(edge.src_task)];
    const auto& dst =
        schedule.timeline[static_cast<std::size_t>(edge.dst_task)];
    EXPECT_GE(dst.start, src.finish - 1e-12)
        << "task " << edge.dst_task << " started before its producer";
  }
}

TEST(SchedulerTest, ProcessorsNeverOverlap) {
  const MappingProblem problem = fft_problem(128, 4);
  const Assignment assignment = greedy_mapping(problem);
  const ScheduleResult schedule = list_schedule(problem, assignment);

  for (int p = 0; p < problem.proc_count(); ++p) {
    std::vector<std::pair<double, double>> intervals;
    for (const ScheduledTask& slot : schedule.timeline) {
      if (slot.proc == p) intervals.emplace_back(slot.start, slot.finish);
    }
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-12);
    }
  }
}

TEST(SchedulerTest, MakespanAndLatencyPositive) {
  const MappingProblem problem = fft_problem();
  const ScheduleResult schedule =
      list_schedule(problem, round_robin_mapping(problem));
  EXPECT_GT(schedule.makespan, 0.0);
  EXPECT_GT(schedule.latency, 0.0);
  EXPECT_LE(schedule.latency, schedule.makespan + 1e-12);
  EXPECT_FALSE(schedule.to_string(problem).empty());
}

TEST(SchedulerTest, LatencyMarginSignsCorrect) {
  const MappingProblem problem = fft_problem();
  const Assignment a = round_robin_mapping(problem);
  EXPECT_GT(latency_margin(problem, a, 1e9), 0.0);
  EXPECT_LT(latency_margin(problem, a, 1e-12), 0.0);
}

TEST(CostTest, TaskMemoryDerivedFromPortSlices) {
  const MappingProblem problem = fft_problem(64, 4);
  // fft_rows thread: in + out, each (64*64/4) cfloat elements.
  const Task& fft_task = problem.tasks[4];
  ASSERT_EQ(fft_task.function, "fft_rows");
  EXPECT_EQ(fft_task.mem_bytes, 2u * (64 * 64 / 4) * 8u);
  // Capacities come from the hardware model (64 MB PowerPC nodes).
  ASSERT_EQ(problem.proc_mem_bytes.size(), 4u);
  EXPECT_EQ(problem.proc_mem_bytes[0], std::size_t{64} << 20);
}

TEST(CostTest, MemoryOverflowPenalized) {
  MappingProblem problem = fft_problem(64, 4);
  // Tiny capacity: everything on one node must overflow.
  problem.proc_mem_bytes.assign(4, 1024);
  const Assignment packed(static_cast<std::size_t>(problem.task_count()), 0);
  const CostBreakdown cost = evaluate(problem, packed);
  EXPECT_FALSE(cost.fits_memory());
  EXPECT_GT(cost.mem_overflow_bytes, 0u);

  // The penalty dominates: a spread mapping (which fits better) wins.
  const CostBreakdown spread =
      evaluate(problem, round_robin_mapping(problem));
  EXPECT_LT(spread.objective, cost.objective);
}

TEST(MapperTest, GeneticAvoidsMemoryOverflow) {
  MappingProblem problem = fft_problem(64, 4);
  // Each node can hold at most ~1/3 of the total staging memory.
  std::size_t total = 0;
  for (const Task& task : problem.tasks) total += task.mem_bytes;
  problem.proc_mem_bytes.assign(4, total / 3);
  const GeneticResult result = genetic_mapping(problem);
  EXPECT_TRUE(result.cost.fits_memory())
      << "overflow " << result.cost.mem_overflow_bytes << " bytes";
}

TEST(MapperTest, LatencyConstraintSteersTheSearch) {
  // Make communication cheap relative to compute so packing work onto
  // few processors is tempting for the comm term, then demand a latency
  // only a spread-out mapping can reach.
  MappingProblem problem = fft_problem(128, 8);
  for (Task& task : problem.tasks) task.work_flops *= 50.0;

  GeneticOptions unconstrained;
  unconstrained.weights.comm = 50.0;  // bias toward packing
  unconstrained.generations = 60;
  const GeneticResult loose = genetic_mapping(problem, unconstrained);
  const double loose_latency =
      list_schedule(problem, loose.best).latency;

  GeneticOptions constrained = unconstrained;
  constrained.latency_bound = loose_latency * 0.7;
  constrained.latency_penalty_weight = 1000.0;
  const GeneticResult tight = genetic_mapping(problem, constrained);
  const double tight_latency =
      list_schedule(problem, tight.best).latency;

  EXPECT_LE(tight_latency, loose_latency);
}

// What bench/atot_mapping prints, pinned exactly (recorded with %.17g):
// each mapper's cost-model objective and list-scheduler latency, and the
// genetic mapper's result. The mappers are deterministic, so a change to
// any mapper, the GA's defaults, the cost model or the scheduler moves a
// value here.
struct QualityPin {
  const char* mapper;
  double objective;
  double latency;
};

void expect_pinned(const MappingProblem& problem,
                   const std::array<QualityPin, 4>& pins, int ga_generations,
                   const Assignment& ga_best) {
  const GeneticResult ga = genetic_mapping(problem);
  const Assignment assignments[] = {
      random_mapping(problem, support::Rng::kDefaultSeed),
      round_robin_mapping(problem), greedy_mapping(problem), ga.best};
  for (std::size_t i = 0; i < pins.size(); ++i) {
    SCOPED_TRACE(pins[i].mapper);
    EXPECT_EQ(evaluate(problem, assignments[i]).objective, pins[i].objective);
    EXPECT_EQ(list_schedule(problem, assignments[i]).latency, pins[i].latency);
  }
  EXPECT_EQ(ga.generations_run, ga_generations);
  EXPECT_EQ(ga.best, ga_best);
}

TEST(MapperTest, QualityPinnedOnBenchProblems) {
  {
    SCOPED_TRACE("fft2d-1024-8n");
    expect_pinned(build_problem(*apps::make_fft2d_workspace(1024, 8)),
                  {{{"random", 0.22560197218749994, 0.18509335124999995},
                    {"round-robin", 0.058440561250000037, 0.058440561250000071},
                    {"greedy", 0.058440561250000037, 0.058440561250000071},
                    {"genetic", 0.058440561250000037, 0.058440561250000071}}},
                  30, {0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7,
                       0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7,
                       0, 1, 2, 3, 4, 5, 6, 7});
  }
  {
    SCOPED_TRACE("cornerturn-512-4n");
    expect_pinned(
        build_problem(*apps::make_cornerturn_workspace(512, 4)),
        {{{"random", 0.022886202500000005, 0.022067002500000005},
          {"round-robin", 0.0098466825000000056, 0.0098466825000000039},
          {"greedy", 0.0098466825000000056, 0.0098466825000000039},
          {"genetic", 0.0071652062500000028, 0.0066736837500000028}}},
        44, {3, 2, 2, 3, 2, 2, 3, 3, 2, 2, 3, 3});
  }
  {
    SCOPED_TRACE("synthetic-hetero");
    expect_pinned(build_problem(*apps::make_synthetic_hetero_workspace()),
                  {{{"random", 0.31147587500000007, 0.50015999999999994},
                    {"round-robin", 0.18786, 0.42082499999999995},
                    {"greedy", 0.10348125000000001, 0.32824499999999995},
                    {"genetic", 0.10348125000000001, 0.32824499999999995}}},
                  30, {4, 5, 6, 7, 2, 3, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 6, 7,
                       0, 1});
  }
}

TEST(ApplyTest, AssignmentWritesBackAndValidates) {
  auto ws = apps::make_fft2d_workspace(64, 4);
  const MappingProblem problem = build_problem(*ws);
  const GeneticResult ga = genetic_mapping(problem);
  apply_assignment(*ws, problem, ga.best);
  EXPECT_NO_THROW(ws->validate_or_throw());

  // The mapping model now reflects the GA's choice, thread by thread.
  const model::MappingView view(ws->root(), ws->mapping());
  for (int t = 0; t < problem.task_count(); ++t) {
    const Task& task = problem.tasks[static_cast<std::size_t>(t)];
    const auto ranks = view.ranks_of(task.function);
    EXPECT_EQ(ranks[static_cast<std::size_t>(task.thread)],
              ga.best[static_cast<std::size_t>(t)]);
  }
}

}  // namespace
}  // namespace sage::atot
