#include "apps/pipelines.hpp"

#include <numeric>
#include <vector>

#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sage::apps {

namespace {

using model::ModelObject;
using model::PortDirection;
using model::Striping;

std::vector<int> all_ranks(int nodes) {
  std::vector<int> ranks(static_cast<std::size_t>(nodes));
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

void check_pipeline_args(std::size_t rows, int nodes) {
  SAGE_CHECK_AS(ModelError, nodes >= 1, "pipeline needs >= 1 node");
  SAGE_CHECK_AS(ModelError, rows >= 1, "pipeline needs >= 1 row");
  SAGE_CHECK_AS(ModelError, rows % static_cast<std::size_t>(nodes) == 0,
                "row count ", rows, " must divide over ", nodes, " nodes");
}

ModelObject& add_stage(ModelObject& app, const char* name, const char* kernel,
                       int threads, const char* in_type, const char* out_type,
                       std::vector<std::size_t> in_dims,
                       std::vector<std::size_t> out_dims,
                       int in_stripe_dim = 0, int out_stripe_dim = 0,
                       double work = 0.0) {
  ModelObject& fn = model::add_function(app, name, kernel, threads, work);
  model::add_port(fn, "in", PortDirection::kIn, Striping::kStriped, in_type,
                  std::move(in_dims), in_stripe_dim);
  model::add_port(fn, "out", PortDirection::kOut, Striping::kStriped,
                  out_type, std::move(out_dims), out_stripe_dim);
  return fn;
}

}  // namespace

std::unique_ptr<model::Workspace> make_quickstart_workspace(std::size_t n,
                                                            int nodes) {
  check_pipeline_args(n, nodes);
  auto ws = std::make_unique<model::Workspace>("quickstart");
  ModelObject& root = ws->root();
  model::add_cspi_platform(root, nodes);

  ModelObject& app = model::add_application(root, "quickstart_app");
  const std::vector<std::size_t> dims{n, n};
  const double fft_work =
      static_cast<double>(n) * static_cast<double>(n) * 10.0;

  ModelObject& src =
      model::add_function(app, "src", "matrix_source", nodes);
  src.set_property("role", "source");
  model::add_port(src, "out", PortDirection::kOut, Striping::kStriped,
                  "cfloat", dims, 0);

  add_stage(app, "fft", "isspl.fft_rows", nodes, "cfloat", "cfloat", dims,
            dims, 0, 0, fft_work);

  ModelObject& sink =
      model::add_function(app, "sink", "matrix_sink", nodes);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", PortDirection::kIn, Striping::kStriped,
                  "cfloat", dims, 0);

  model::connect(app, "src.out", "fft.in");
  model::connect(app, "fft.out", "sink.in");

  ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  for (const char* fn : {"src", "fft", "sink"}) {
    model::assign_ranks(root, mapping, fn, all_ranks(nodes));
  }
  return ws;
}

std::unique_ptr<model::Workspace> make_radar_workspace(std::size_t pulses,
                                                       std::size_t range,
                                                       int nodes) {
  check_pipeline_args(pulses, nodes);
  check_pipeline_args(range, nodes);
  auto ws = std::make_unique<model::Workspace>("radar");
  ModelObject& root = ws->root();
  model::add_cspi_platform(root, nodes);

  ModelObject& app = model::add_application(root, "range_doppler");
  const std::vector<std::size_t> cube{pulses, range};    // pulse-major
  const std::vector<std::size_t> turned{range, pulses};  // range-major
  const double cells = static_cast<double>(pulses) * static_cast<double>(range);

  ModelObject& src =
      model::add_function(app, "pulses", "matrix_source", nodes);
  src.set_property("role", "source");
  model::add_port(src, "out", PortDirection::kOut, Striping::kStriped,
                  "cfloat", cube, 0);

  ModelObject& window =
      add_stage(app, "window", "isspl.window_rows", nodes, "cfloat", "cfloat",
                cube, cube, 0, 0, cells * 2.0);
  window.set_property("param_window", 2.0);  // Hamming

  add_stage(app, "range_fft", "isspl.fft_rows", nodes, "cfloat", "cfloat",
            cube, cube, 0, 0, cells * 10.0);

  // Corner turn: consume columns (range gates across pulses), emit the
  // turned cube striped by rows again.
  add_stage(app, "corner_turn", "isspl.corner_turn_local", nodes, "cfloat",
            "cfloat", cube, turned, /*in_stripe_dim=*/1, /*out_stripe_dim=*/0,
            cells * 1.0);

  add_stage(app, "doppler_fft", "isspl.fft_rows", nodes, "cfloat", "cfloat",
            turned, turned, 0, 0, cells * 10.0);

  add_stage(app, "magnitude", "isspl.magnitude", nodes, "cfloat", "float",
            turned, turned, 0, 0, cells * 2.0);

  ModelObject& threshold =
      add_stage(app, "threshold", "isspl.threshold", nodes, "float", "float",
                turned, turned, 0, 0, cells * 1.0);
  threshold.set_property("param_cutoff", 40.0);  // detection cutoff

  ModelObject& sink =
      model::add_function(app, "detections", "float_sink", nodes);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", PortDirection::kIn, Striping::kStriped, "float",
                  turned, 0);

  model::connect(app, "pulses.out", "window.in");
  model::connect(app, "window.out", "range_fft.in");
  model::connect(app, "range_fft.out", "corner_turn.in");
  model::connect(app, "corner_turn.out", "doppler_fft.in");
  model::connect(app, "doppler_fft.out", "magnitude.in");
  model::connect(app, "magnitude.out", "threshold.in");
  model::connect(app, "threshold.out", "detections.in");

  ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  for (const char* fn : {"pulses", "window", "range_fft", "corner_turn",
                         "doppler_fft", "magnitude", "threshold",
                         "detections"}) {
    model::assign_ranks(root, mapping, fn, all_ranks(nodes));
  }
  return ws;
}

std::unique_ptr<model::Workspace> make_tuning_workspace(std::size_t n,
                                                        int stages,
                                                        int fast_procs,
                                                        int slow_procs) {
  constexpr int kThreads = 2;  // per function
  SAGE_CHECK_AS(ModelError, stages >= 1, "tuning pipeline needs >= 1 stage");
  SAGE_CHECK_AS(ModelError, fast_procs >= 1 && slow_procs >= 1,
                "tuning platform needs >= 1 fast and >= 1 slow processor");
  check_pipeline_args(n, kThreads);

  auto ws = std::make_unique<model::Workspace>("tuning");
  ModelObject& root = ws->root();

  // The skewed machine: the fast board's processors run 16x quicker
  // than the slow board's (cpu_scale 0.25 vs 4.0). Fast processors take
  // ranks [0, fast_procs), slow ones the rest.
  ModelObject& hw = model::add_hardware(root, "hetero");
  ModelObject& fast_board = model::add_board(hw, "fast_board");
  for (int p = 0; p < fast_procs; ++p) {
    model::add_processor(fast_board, "fast" + std::to_string(p), 400.0,
                         256ull << 20, /*cpu_scale=*/0.25);
  }
  ModelObject& slow_board = model::add_board(hw, "slow_board");
  for (int p = 0; p < slow_procs; ++p) {
    model::add_processor(slow_board, "slow" + std::to_string(p), 100.0,
                         256ull << 20, /*cpu_scale=*/4.0);
  }

  ModelObject& app = model::add_application(root, "tuning_chain");
  const std::vector<std::size_t> dims{n, n};
  const double fft_work =
      static_cast<double>(n) * static_cast<double>(n) * 10.0;

  ModelObject& src = model::add_function(app, "src", "matrix_source",
                                         kThreads);
  src.set_property("role", "source");
  model::add_port(src, "out", PortDirection::kOut, Striping::kStriped,
                  "cfloat", dims, 0);

  std::vector<std::string> chain{"src"};
  for (int s = 0; s < stages; ++s) {
    const std::string name = "stage" + std::to_string(s);
    add_stage(app, name.c_str(), "isspl.fft_rows", kThreads, "cfloat",
              "cfloat", dims, dims, 0, 0, fft_work);
    chain.push_back(name);
  }

  ModelObject& sink = model::add_function(app, "sink", "matrix_sink",
                                          kThreads);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", PortDirection::kIn, Striping::kStriped,
                  "cfloat", dims, 0);
  chain.push_back("sink");

  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    model::connect(app, chain[i] + ".out", chain[i + 1] + ".in");
  }

  // The deliberately bad start: every function's threads cycle over the
  // slow ranks only; the fast processors sit idle until a tuner moves
  // work onto them.
  std::vector<int> slow_ranks(static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    slow_ranks[static_cast<std::size_t>(t)] = fast_procs + (t % slow_procs);
  }
  ModelObject& mapping = model::add_mapping(root, "mapping", "hetero");
  for (const std::string& fn : chain) {
    model::assign_ranks(root, mapping, fn, slow_ranks);
  }
  return ws;
}

std::unique_ptr<model::Workspace> make_synthetic_hetero_workspace() {
  auto ws = std::make_unique<model::Workspace>("synthetic");
  ModelObject& root = ws->root();
  ModelObject& hw = model::add_hardware(root, "hetero");
  ModelObject& board = model::add_board(hw, "carrier");
  for (int p = 0; p < 2; ++p) {
    model::add_processor(board, "fast_" + std::to_string(p), 400.0,
                         std::int64_t{64} << 20, 0.5);
  }
  ModelObject& board2 = model::add_board(hw, "carrier2");
  for (int p = 0; p < 6; ++p) {
    model::add_processor(board2, "slow_" + std::to_string(p), 100.0,
                         std::int64_t{64} << 20, 2.0);
  }

  ModelObject& app = model::add_application(root, "synthetic_chain");
  const std::vector<std::size_t> dims{256, 256};
  support::Rng rng(7);
  ModelObject* prev = nullptr;
  for (int i = 0; i < 10; ++i) {
    const double work = 1e6 * (1.0 + static_cast<double>(rng.below(20)));
    ModelObject& fn = model::add_function(app, "stage_" + std::to_string(i),
                                          "identity", 2, work);
    model::add_port(fn, "in", PortDirection::kIn, Striping::kStriped,
                    "cfloat", dims, 0);
    model::add_port(fn, "out", PortDirection::kOut, Striping::kStriped,
                    "cfloat", dims, 0);
    if (prev != nullptr) {
      model::connect(app, prev->name() + ".out", fn.name() + ".in");
    }
    prev = &fn;
  }
  return ws;
}

}  // namespace sage::apps
