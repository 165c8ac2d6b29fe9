// Golden-file tests pinning the Alter glue-code generator's output --
// the function table and logical buffer definitions (glue.cfg and the
// illustrative glue.c) -- for the quickstart and radar example
// pipelines and the 64x64 Table-1 benchmark designs (2D FFT on four
// nodes, corner turn on two). Any intentional change to the generator's
// emission must be reviewed by regenerating the goldens:
//
//   SAGE_UPDATE_GOLDEN=1 ./build/tests/codegen_golden_test
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "codegen/generator.hpp"
#include "golden_file.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"

namespace sage {
namespace {

using golden::expect_matches_golden;
using model::ModelObject;

/// The quickstart example's design: src -> row FFT -> sink on a 256x256
/// complex matrix, four nodes, one thread of each function per node.
std::unique_ptr<model::Workspace> make_quickstart_workspace() {
  auto workspace = std::make_unique<model::Workspace>("quickstart");
  ModelObject& root = workspace->root();
  model::add_cspi_platform(root, 4);

  ModelObject& app = model::add_application(root, "quickstart_app");
  const std::vector<std::size_t> dims{256, 256};

  ModelObject& src = model::add_function(app, "src", "matrix_source", 4);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  ModelObject& fft =
      model::add_function(app, "fft", "isspl.fft_rows", 4, 256 * 256 * 10.0);
  model::add_port(fft, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);
  model::add_port(fft, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  ModelObject& sink = model::add_function(app, "sink", "matrix_sink", 4);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);

  model::connect(app, "src.out", "fft.in");
  model::connect(app, "fft.out", "sink.in");

  ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  for (const char* fn : {"src", "fft", "sink"}) {
    model::assign_ranks(root, mapping, fn, {0, 1, 2, 3});
  }
  return workspace;
}

/// The radar example's design: the eight-stage range-Doppler chain on a
/// 256x512 pulse cube over eight nodes, corner turn via port striping.
std::unique_ptr<model::Workspace> make_radar_workspace() {
  constexpr std::size_t kPulses = 256;
  constexpr std::size_t kRange = 512;
  constexpr int kNodes = 8;

  auto workspace = std::make_unique<model::Workspace>("radar");
  ModelObject& root = workspace->root();
  model::add_cspi_platform(root, kNodes);

  ModelObject& app = model::add_application(root, "range_doppler");
  const std::vector<std::size_t> cube{kPulses, kRange};
  const std::vector<std::size_t> turned{kRange, kPulses};

  auto add_stage = [&](const char* name, const char* kernel,
                       const char* in_type, const char* out_type,
                       std::vector<std::size_t> in_dims,
                       std::vector<std::size_t> out_dims, int in_stripe_dim,
                       int out_stripe_dim, double work) -> ModelObject& {
    ModelObject& fn = model::add_function(app, name, kernel, kNodes, work);
    model::add_port(fn, "in", model::PortDirection::kIn,
                    model::Striping::kStriped, in_type, std::move(in_dims),
                    in_stripe_dim);
    model::add_port(fn, "out", model::PortDirection::kOut,
                    model::Striping::kStriped, out_type, std::move(out_dims),
                    out_stripe_dim);
    return fn;
  };

  ModelObject& src = model::add_function(app, "pulses", "matrix_source",
                                         kNodes);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", cube, 0);

  ModelObject& window =
      add_stage("window", "isspl.window_rows", "cfloat", "cfloat", cube, cube,
                0, 0, kPulses * kRange * 2.0);
  window.set_property("param_window", 2.0);

  add_stage("range_fft", "isspl.fft_rows", "cfloat", "cfloat", cube, cube, 0,
            0, kPulses * kRange * 10.0);
  add_stage("corner_turn", "isspl.corner_turn_local", "cfloat", "cfloat",
            cube, turned, 1, 0, kPulses * kRange * 1.0);
  add_stage("doppler_fft", "isspl.fft_rows", "cfloat", "cfloat", turned,
            turned, 0, 0, kPulses * kRange * 10.0);
  add_stage("magnitude", "isspl.magnitude", "cfloat", "float", turned, turned,
            0, 0, kPulses * kRange * 2.0);

  ModelObject& threshold =
      add_stage("threshold", "isspl.threshold", "float", "float", turned,
                turned, 0, 0, kPulses * kRange * 1.0);
  threshold.set_property("param_cutoff", 40.0);

  ModelObject& sink =
      model::add_function(app, "detections", "float_sink", kNodes);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "float", turned, 0);

  model::connect(app, "pulses.out", "window.in");
  model::connect(app, "window.out", "range_fft.in");
  model::connect(app, "range_fft.out", "corner_turn.in");
  model::connect(app, "corner_turn.out", "doppler_fft.in");
  model::connect(app, "doppler_fft.out", "magnitude.in");
  model::connect(app, "magnitude.out", "threshold.in");
  model::connect(app, "threshold.out", "detections.in");

  ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  std::vector<int> ranks;
  for (int r = 0; r < kNodes; ++r) ranks.push_back(r);
  for (const char* fn : {"pulses", "window", "range_fft", "corner_turn",
                         "doppler_fft", "magnitude", "threshold",
                         "detections"}) {
    model::assign_ranks(root, mapping, fn, ranks);
  }
  return workspace;
}

TEST(CodegenGoldenTest, QuickstartGlueConfig) {
  auto ws = make_quickstart_workspace();
  const codegen::GeneratedArtifacts artifacts = codegen::generate_glue(*ws);
  expect_matches_golden(artifacts.glue_config_text(), "quickstart_glue.cfg");
}

TEST(CodegenGoldenTest, QuickstartGlueSource) {
  auto ws = make_quickstart_workspace();
  const codegen::GeneratedArtifacts artifacts = codegen::generate_glue(*ws);
  expect_matches_golden(artifacts.glue_source_text(), "quickstart_glue.c");
}

TEST(CodegenGoldenTest, RadarGlueConfig) {
  auto ws = make_radar_workspace();
  const codegen::GeneratedArtifacts artifacts = codegen::generate_glue(*ws);
  expect_matches_golden(artifacts.glue_config_text(), "radar_glue.cfg");
}

TEST(CodegenGoldenTest, RadarGlueSource) {
  auto ws = make_radar_workspace();
  const codegen::GeneratedArtifacts artifacts = codegen::generate_glue(*ws);
  expect_matches_golden(artifacts.glue_source_text(), "radar_glue.c");
}

/// Pins both emitted files of one design: `<stem>_glue.cfg` and
/// `<stem>_glue.c`.
void expect_glue_matches_golden(model::Workspace& workspace,
                                const std::string& stem) {
  const codegen::GeneratedArtifacts artifacts =
      codegen::generate_glue(workspace);
  expect_matches_golden(artifacts.glue_config_text(), stem + "_glue.cfg");
  expect_matches_golden(artifacts.glue_source_text(), stem + "_glue.c");
}

TEST(CodegenGoldenTest, Fft2dGlue) {
  expect_glue_matches_golden(*apps::make_fft2d_workspace(64, 4), "fft2d_64x4");
}

TEST(CodegenGoldenTest, CornerturnGlue) {
  expect_glue_matches_golden(*apps::make_cornerturn_workspace(64, 2),
                             "cornerturn_64x2");
}

TEST(CodegenGoldenTest, GenerationIsDeterministic) {
  auto a = make_radar_workspace();
  auto b = make_radar_workspace();
  const codegen::GeneratedArtifacts first = codegen::generate_glue(*a);
  const codegen::GeneratedArtifacts second = codegen::generate_glue(*b);
  EXPECT_EQ(first.outputs, second.outputs);
}

}  // namespace
}  // namespace sage
