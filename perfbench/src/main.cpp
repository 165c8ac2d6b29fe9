// sagebench -- the openSAGE benchmark program.
//
//   sagebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <result.json>] [--commit <id>]
//
// Runs one workload, checks every output against a reference, writes
// one result file stamped with its environment, prints every metric by
// name with its unit and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exits 1 when any output is wrong or any operation
// failed, 2 on bad arguments. perfbench/README.md defines every metric.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

const char* const kWorkloads[] = {"fft2d-1024x4", "cornerturn-1024x4-shared",
                                  "cornerturn-1024x4-faults", "serve-open"};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "sagebench: %s\nusage: sagebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <file>] [--commit <id>]\n"
               "workloads:",
               why.c_str());
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...}
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string out_path;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out") {
        out_path = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known) return usage("unknown workload '" + args.workload + "'");

  Report report;
  const double start = perfbench::now_s();
  try {
    if (args.workload == "serve-open") {
      perfbench::run_serve(args, report);
    } else {
      perfbench::run_batch(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sagebench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const double wall_s = perfbench::now_s() - start;

  const bool correct = report.failed() == 0 && report.attempted > 0;
  const double failed_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed()) / report.attempted
          : 1.0;
  report.note("failed_frac", failed_frac, "ratio");

  std::ostringstream env;
  env << "{\"nproc\": " << cpus_available()
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"transport\": \"inproc\", \"commit\": " << quoted(commit) << "}";

  const std::vector<Metric>& chosen =
      args.trace ? report.per_layer : report.end_to_end;
  std::ostringstream result;
  result << "{\n  \"benchmark\": \"perfbench\",\n  \"format\": 1,\n"
         << "  \"workload\": " << quoted(args.workload) << ",\n"
         << "  \"seed\": " << args.seed << ",\n"
         << "  \"seconds\": " << number(args.seconds) << ",\n"
         << "  \"trace\": " << (args.trace ? 1 : 0) << ",\n"
         << "  \"env\": " << env.str() << ",\n"
         << "  \"correct\": " << (correct ? "true" : "false") << ",\n"
         << "  \"attempted\": " << report.attempted << ",\n"
         << "  \"failed\": " << report.failed() << ",\n"
         << "  \"failures\": {\"mismatches\": " << report.mismatches
         << ", \"errors\": " << report.errors << ", \"sheds\": "
         << report.sheds << "},\n"
         << "  \"wall_s\": " << number(wall_s) << ",\n"
         << "  \"metrics\": " << metrics_json(chosen) << ",\n"
         << "  \"detail\": " << metrics_json(report.detail) << "\n}\n";
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    file << result.str();
    if (!file) {
      std::fprintf(stderr, "sagebench: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }

  std::printf("workload %s seed %llu trace %d: %llu attempted, %llu failed "
              "(%llu mismatches, %llu errors, %llu sheds), %.1f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.mismatches),
              static_cast<unsigned long long>(report.errors),
              static_cast<unsigned long long>(report.sheds), wall_s);
  for (const Metric& m : report.detail) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : chosen) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed()),
              metrics_json(chosen).c_str());
  return correct ? 0 : 1;
}
