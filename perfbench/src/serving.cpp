// sagebench -- the serve-open workload and the open-loop load generator it
// shares with every workload's traced run.
//
// Load is open loop and paced in host time: one generator thread sleeps
// until each request's due time and submits it whether or not earlier
// requests finished, so a stall delays every later request and shows in
// the latency, which runs from the due time to the observed completion.
// The server's own admission model runs in virtual time; every request
// passes its due time (seconds since the server was built) as
// arrival_vt so both clocks advance together.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

/// Two tenants with equal shares: each sends half the requests, with
/// either program equally likely, and each holds an in-flight quota of
/// half the admission bound, so every admission runs the per-tenant
/// quota check. The quota never binds below capacity; past it, a tenant
/// that fills its half sheds.
const char* const kTenants[] = {"tenant-a", "tenant-b"};
constexpr int kQueueDepth = 4096;
constexpr int kTenantInFlight = kQueueDepth / 2;

/// serve-open's rates, as fractions of the fleet's host capacity:
/// workers / the mix's mean solo request time, measured after set-up.
/// The reference load is 30 % of it and the ladder's first rung; the
/// ladder moves from there by 25 % a rung until a rung's verdict flips.
constexpr double kReferenceLoad = 0.3;
constexpr double kRungFactor = 1.25;
constexpr int kMaxRungs = 16;
/// p99 must stay within this multiple of the slower program's measured
/// solo request time.
constexpr double kLimitFactor = 10.0;
/// A rung needs this many requests so its p99 has ten samples beyond it.
constexpr int kRungRequests = 1000;
/// Waiter threads grow with the backlog up to this many; a rung that
/// holds more requests in flight fails (its backlog is growing).
constexpr int kMaxWaiters = 256;

struct Arrival {
  double due_s = 0.0;  // offset from the start of the load
  int program = 0;
  int tenant = 0;
};

/// Seeded Poisson arrivals at `rate` with a seeded, even program and
/// tenant mix.
std::vector<Arrival> make_arrivals(int count, double rate, int programs,
                                   std::uint64_t seed) {
  const std::vector<support::VirtualSeconds> times =
      serve::poisson_arrivals(count, rate, seed);
  support::Rng mix(seed ^ 0x6d69785f73656564ull);
  std::vector<Arrival> out(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    out[i].due_s = times[i];
    out[i].program = programs > 1 && mix.chance(0.5) ? 1 : 0;
    out[i].tenant = mix.chance(0.5) ? 0 : 1;
  }
  return out;
}

struct Load {
  std::vector<double> latency_ms;  // due -> observed completion
  std::vector<double> lag_ms;      // how late each submit started
  std::vector<double> submit_us;   // Server::submit call time
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t coalesced = 0;
  int backlog_max = 0;  // most requests in flight at any submit
  int backlog_end = 0;  // requests in flight when the last one was sent
  bool waiters_saturated = false;
};

/// Threads that each block in Server::wait on one ticket. The pool grows
/// whenever a ticket arrives with no idle thread to take it, so every
/// in-flight ticket has its own waiter (up to kMaxWaiters) and a
/// request's completion is observed when it happens, not behind an
/// earlier, slower request.
class Waiters {
 public:
  Waiters(serve::Server& server, const std::vector<Expected>& expected)
      : server_(server), expected_(expected) {}
  ~Waiters() { finish(); }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  /// Called from one thread only (the generator).
  void push(serve::ServeTicket ticket, double due, int program) {
    ++in_flight_;
    bool grow = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({ticket, due, program});
      grow = static_cast<int>(queue_.size()) > idle_ &&
             static_cast<int>(threads_.size()) < kMaxWaiters;
    }
    if (grow) threads_.emplace_back([this] { loop(); });
    if (in_flight_.load() > static_cast<int>(threads_.size())) {
      saturated_ = true;
    }
    cv_.notify_one();
  }

  /// True once more tickets were in flight than there were waiters, so
  /// some completions may have been observed late.
  bool saturated() const { return saturated_; }

  int in_flight() const { return in_flight_.load(); }

  /// Waits for every pushed ticket and folds the outcomes into `load`.
  void finish(Load* load = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    if (load == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    load->latency_ms.insert(load->latency_ms.end(), latency_ms_.begin(),
                            latency_ms_.end());
    load->errors += errors_;
    load->mismatches += mismatches_;
    load->coalesced += coalesced_;
  }

 private:
  struct Item {
    serve::ServeTicket ticket;
    double due = 0.0;
    int program = 0;
  };

  void loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++idle_;
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        --idle_;
        if (queue_.empty()) return;
        item = queue_.front();
        queue_.pop_front();
      }
      bool ok = false;
      bool matched = false;
      bool coalesced = false;
      double completed = 0.0;
      try {
        const serve::Response response = server_.wait(item.ticket);
        completed = now_s();
        ok = response.ok();
        coalesced = response.coalesced;
        matched = ok && expected_[static_cast<std::size_t>(item.program)]
                            .matches(sink_checksum(response.stats));
      } catch (const std::exception&) {
        completed = now_s();
      }
      --in_flight_;
      std::lock_guard<std::mutex> lock(mu_);
      if (!ok) {
        ++errors_;
      } else if (!matched) {
        ++mismatches_;
      } else {
        latency_ms_.push_back((completed - item.due) * 1e3);
      }
      if (coalesced) ++coalesced_;
    }
  }

  serve::Server& server_;
  const std::vector<Expected>& expected_;
  std::atomic<int> in_flight_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  int idle_ = 0;  // threads waiting for a ticket
  bool done_ = false;
  bool saturated_ = false;
  std::vector<double> latency_ms_;
  std::uint64_t errors_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t coalesced_ = 0;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// Drives `arrivals` against `server` from this thread and returns once
/// every admitted request completed. `base_s` is the host time the
/// server's virtual clock starts from.
Load drive(serve::Server& server, const std::vector<std::uint64_t>& keys,
           const std::vector<Expected>& expected,
           const std::vector<Arrival>& arrivals, double base_s) {
  Load load;
  Waiters waiters(server, expected);
  const double start = now_s() + 1e-3;
  for (const Arrival& a : arrivals) {
    const double due = start + a.due_s;
    const double ahead = due - now_s();
    if (ahead > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
    const double t = now_s();
    load.lag_ms.push_back(std::max(0.0, t - due) * 1e3);
    serve::RunRequest request;
    request.tenant = kTenants[a.tenant];
    request.arrival_vt = due - base_s;
    const serve::ServeTicket ticket =
        server.submit(keys[static_cast<std::size_t>(a.program)], request);
    load.submit_us.push_back((now_s() - t) * 1e6);
    ++load.submitted;
    if (!ticket.admitted()) {
      ++load.shed;
      continue;
    }
    waiters.push(ticket, due, a.program);
    load.backlog_max = std::max(load.backlog_max, waiters.in_flight());
  }
  load.backlog_end = waiters.in_flight();
  load.waiters_saturated = waiters.saturated();
  waiters.finish(&load);
  return load;
}

void tally(const Load& load, Report& report) {
  report.attempted += load.submitted;
  report.sheds += load.shed;
  report.errors += load.errors;
  report.mismatches += load.mismatches;
}

void report_serve_layers(const Load& load, double add_program_ms,
                         Report& report) {
  const double submitted = std::max<double>(1.0, load.submitted);
  report.layer("serve.add_program_ms", add_program_ms, "ms");
  report.layer("serve.submit_us", median(load.submit_us), "us");
  report.layer("serve.lag_ms", quantile(load.lag_ms, 0.99), "ms");
  report.layer("serve.coalesced_frac", load.coalesced / submitted, "ratio");
  report.layer("serve.shed_frac", load.shed / submitted, "ratio");
  report.layer("serve.backlog_max", load.backlog_max, "count");
}

/// At most four node threads run at once: a worker drives one fleet
/// session at a time, so workers x nodes <= 4, one session per worker.
serve::ServerOptions server_options(core::Project& project,
                                    const ProgramSpec& spec) {
  serve::ServerOptions options;
  options.workers = std::max(1, 4 / spec.nodes);
  options.max_sessions_per_program = options.workers;
  // Deep enough that a rung just past capacity does not shed within
  // its short run; the ladder's own backlog test ends the climb.
  options.max_queue_depth = kQueueDepth;
  options.execute = project.resolved_options(execute_options(spec));
  return options;
}

void set_quotas(serve::Server& server) {
  serve::TenantQuota quota;
  quota.max_in_flight = kTenantInFlight;
  for (const char* tenant : kTenants) server.set_quota(tenant, quota);
}

/// Solo request time of `session`, ms: the median virtual latency of a
/// few runs. Their host time doubled in busy spells of a shared host,
/// which would move every rate derived from it; the virtual latency
/// (thread CPU time plus the modelled fabric) stays within a few %.
double solo_ms(runtime::Session& session, const Expected& expected,
               Report& report) {
  std::vector<double> ms;
  for (int i = 0; i < 15; ++i) {
    const runtime::RunStats stats = session.run();
    report.check(expected.matches(sink_checksum(stats)));
    for (const double latency : stats.latencies) ms.push_back(latency * 1e3);
  }
  return median(ms);
}

/// Grows every fleet to its session cap with one simultaneous burst per
/// program, so the measured load never pays a session open inside
/// Server::submit. Returns (program, checksum) of every response.
std::vector<std::pair<int, double>> grow_fleets(
    serve::Server& server, const std::vector<std::uint64_t>& keys,
    double base_s, Report& report) {
  std::vector<std::pair<int, serve::ServeTicket>> tickets;
  for (std::size_t p = 0; p < keys.size(); ++p) {
    serve::RunRequest request;
    request.arrival_vt = now_s() - base_s;
    const int burst = 2 * server.options().max_sessions_per_program;
    for (int i = 0; i < burst; ++i) {
      tickets.emplace_back(static_cast<int>(p), server.submit(keys[p], request));
    }
  }
  std::vector<std::pair<int, double>> sums;
  for (const auto& [program, ticket] : tickets) {
    if (!ticket.admitted()) {
      ++report.attempted;
      ++report.sheds;
      continue;
    }
    const serve::Response response = server.wait(ticket);
    if (!response.ok()) {
      ++report.attempted;
      ++report.errors;
      continue;
    }
    sums.emplace_back(program, sink_checksum(response.stats));
  }
  return sums;
}

}  // namespace

void serve_layer_probe(const ProgramSpec& spec, double rate, double budget_s,
                       std::uint64_t seed, const Expected& expected,
                       Report& report) {
  Opened opened = open_program(spec, /*open=*/false);
  const double base = now_s();
  serve::Server server(server_options(*opened.project, spec));
  set_quotas(server);
  const double t = now_s();
  const std::uint64_t key = server.add_program(
      spec.app, opened.project->compile_program(execute_options(spec)),
      opened.project->registry());
  const double add_ms = (now_s() - t) * 1e3;
  for (const auto& [program, sum] : grow_fleets(server, {key}, base, report)) {
    report.check(expected.matches(sum));
  }
  const int count = std::max(20, static_cast<int>(rate * budget_s));
  const Load load = drive(server, {key}, {expected},
                          make_arrivals(count, rate, 1, seed), base);
  tally(load, report);
  report_serve_layers(load, add_ms, report);
}

namespace {

/// One serve-open set-up: both programs built, generated and lowered, a
/// server built with its tenant quotas, both programs registered
/// (session open + calibration).
struct ServeSetup {
  Opened fft;
  Opened turn;
  std::unique_ptr<serve::Server> server;
  std::vector<std::uint64_t> keys;
  double base = 0.0;      // host time the server's virtual clock starts at
  double total_s = 0.0;   // the whole set-up
  double serve_ms = 0.0;  // server construction + registration
  double add_ms = 0.0;    // registration alone
};

ServeSetup serve_setup(const ProgramSpec& fft, const ProgramSpec& turn) {
  ServeSetup out;
  const double t0 = now_s();
  out.fft = open_program(fft, /*open=*/false);
  out.turn = open_program(turn, /*open=*/false);
  out.base = now_s();
  out.server =
      std::make_unique<serve::Server>(server_options(*out.fft.project, fft));
  set_quotas(*out.server);
  const double t1 = now_s();
  out.keys.push_back(out.server->add_program(
      "fft2d", out.fft.project->compile_program(execute_options(fft)),
      out.fft.project->registry()));
  out.keys.push_back(out.server->add_program(
      "cornerturn", out.turn.project->compile_program(execute_options(turn)),
      out.turn.project->registry()));
  const double t2 = now_s();
  out.total_s = t2 - t0;
  out.serve_ms = (t2 - out.base) * 1e3;
  out.add_ms = (t2 - t1) * 1e3;
  return out;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const ProgramSpec fft{"fft2d", 256, 2, runtime::BufferPolicy::kUniquePerFunction,
                        nullptr};
  const ProgramSpec turn{"cornerturn", 256, 2,
                         runtime::BufferPolicy::kUniquePerFunction, nullptr};
  const double budget = args.seconds;
  const std::vector<Expected> expected{expected_output(fft),
                                       expected_output(turn)};

  // Set-up, median over fresh set-ups. One set-up takes about 20 ms and
  // mostly runs data sets (calibration), so it moves with the host's
  // momentary load: the untraced run spreads its samples over the
  // reference windows instead of taking them in one burst.
  constexpr int kSetups = 61;
  std::vector<SetupTimes> stages;
  std::vector<SetupTimes> turn_stages;
  std::vector<double> totals;
  std::vector<double> add_ms;
  std::vector<double> serve_ms;
  const auto record = [&](const ServeSetup& setup) {
    totals.push_back(setup.total_s);
    add_ms.push_back(setup.add_ms);
    serve_ms.push_back(setup.serve_ms);
    stages.push_back(setup.fft.times);
    turn_stages.push_back(setup.turn.times);
  };
  const auto sample_setups = [&](int count) {
    for (int k = 0; k < count; ++k) record(serve_setup(fft, turn));
  };
  ServeSetup live = serve_setup(fft, turn);
  record(live);
  const double cold_alter_compile_ms = live.fft.times.alter_compile_ms;
  if (args.trace) sample_setups(kSetups - 1);
  serve::Server& server = *live.server;
  const std::vector<std::uint64_t>& keys = live.keys;
  const double base = live.base;
  const std::vector<std::pair<int, double>> warm =
      grow_fleets(server, keys, base, report);
  for (const auto& [program, sum] : warm) {
    report.check(expected[static_cast<std::size_t>(program)].matches(sum));
  }

  // Solo request times on warm sessions of each program: the fleet's
  // host capacity, which sets the rates, and the latency limit.
  const double t_open = now_s();
  auto fft_session =
      live.fft.project->open_session(execute_options(fft));
  const double open_ms = (now_s() - t_open) * 1e3;
  auto turn_session =
      live.turn.project->open_session(execute_options(turn));
  report.check(expected[0].matches_hand(run_hand(fft, 1).checksums.front()));
  report.check(expected[1].matches_hand(run_hand(turn, 1).checksums.front()));
  const double fft_solo = solo_ms(*fft_session, expected[0], report);
  const double turn_solo = solo_ms(*turn_session, expected[1], report);
  const double solo = std::max(fft_solo, turn_solo);
  const double limit_ms = kLimitFactor * solo;
  const double capacity_rps =
      server.options().workers * 1e3 / (0.5 * (fft_solo + turn_solo));
  const double reference_rps = kReferenceLoad * capacity_rps;
  report.note("solo_request_vt_ms", solo, "ms");
  report.note("latency_limit_ms", limit_ms, "ms");
  report.note("capacity_rps", capacity_rps, "1/s");
  report.note("reference_rps", reference_rps, "1/s");
  // The server's own calibrated (virtual-time) saturation, for reference.
  for (const std::uint64_t key : keys) {
    const serve::ProgramInfo info = server.program_info(key);
    report.note("saturation_vt_rps." + info.name, info.saturation_rate(),
                "1/s");
  }

  if (!args.trace) {
    const Rounds rounds = table1_rounds(fft, *fft_session, 0.2 * budget,
                                        expected[0], report);
    report.e2e("pct_of_hand", median(rounds.pct), "%");
    report.e2e("vt_ms_p50", median(rounds.sage_vt_ms), "ms");
    report.note("vt_ms_p95", quantile(rounds.sage_vt_ms, 0.95), "ms");
    report.note("set_samples", static_cast<double>(rounds.sage_vt_ms.size()),
                "count");
    report.note("table1_rounds", static_cast<double>(rounds.pct.size()),
                "count");

    // The reference rate: serve latency, and the process CPU time each
    // served request costs, as the median over windows of 150 requests
    // (so host contention that comes and goes moves few windows).
    constexpr int kWindow = 150;
    const int windows = std::max(
        1, static_cast<int>(reference_rps * 0.5 * budget) / kWindow);
    Load ref;
    std::vector<double> cpu_ms;
    const int setups_per_window = (kSetups - 1 + windows - 1) / windows;
    for (int w = 0; w < windows; ++w) {
      sample_setups(std::min(setups_per_window,
                             kSetups - static_cast<int>(totals.size())));
      const double cpu_start = cpu_s();
      const Load part = drive(server, keys, expected,
                              make_arrivals(kWindow, reference_rps, 2,
                                            args.seed * 1000 + w),
                              base);
      cpu_ms.push_back((cpu_s() - cpu_start) * 1e3 /
                       std::max<double>(1.0, part.submitted - part.shed));
      tally(part, report);
      ref.latency_ms.insert(ref.latency_ms.end(), part.latency_ms.begin(),
                            part.latency_ms.end());
      ref.shed += part.shed;
      ref.errors += part.errors;
      ref.backlog_end = std::max(ref.backlog_end, part.backlog_end);
      ref.waiters_saturated = ref.waiters_saturated || part.waiters_saturated;
    }
    report.e2e("cpu_ms_per_set", median(cpu_ms), "ms");
    report.e2e("setup_s", median(totals), "s");
    report.note("setup_samples", static_cast<double>(totals.size()), "count");
    report.note("serve_ms_p50", median(ref.latency_ms), "ms");
    report.note("serve_ms_p99", quantile(ref.latency_ms, 0.99), "ms");
    report.note("serve_samples", static_cast<double>(ref.latency_ms.size()),
                "count");
    report.note("serve_waiters_saturated", ref.waiters_saturated ? 1.0 : 0.0,
                "count");

    // The ladder: the highest fixed rate whose p99 meets the limit with
    // no growing backlog. The reference load is its first rung; it
    // climbs from there by kRungFactor while rungs pass, or descends
    // while they fail.
    const auto passes = [&](const Load& load, double rate) {
      const double p99 = quantile(load.latency_ms, 0.99);
      // Little's law: at the limit, rate x limit requests are in flight.
      const double backlog_bound = 4.0 + 2.0 * rate * limit_ms * 1e-3;
      const bool pass = load.shed == 0 && load.errors == 0 &&
                        !load.waiters_saturated && p99 <= limit_ms &&
                        load.backlog_end <= backlog_bound;
      std::fprintf(stderr, "  rung %.0f req/s: p99 %.3f ms, backlog %d -> %s\n",
                   rate, p99, load.backlog_end, pass ? "pass" : "fail");
      return pass;
    };
    const bool climb = passes(ref, reference_rps);
    double max_rps = climb ? reference_rps : 0.0;
    double rate = climb ? reference_rps * kRungFactor
                        : reference_rps / kRungFactor;
    const double ladder_end = now_s() + 0.25 * budget;
    for (int rung = 0; rung < kMaxRungs && now_s() < ladder_end; ++rung) {
      const Load step = drive(server, keys, expected,
                              make_arrivals(kRungRequests, rate, 2,
                                            args.seed + 1 + rung),
                              base);
      tally(step, report);
      const bool pass = passes(step, rate);
      if (pass) max_rps = std::max(max_rps, rate);
      if (pass != climb) break;
      rate = climb ? rate * kRungFactor : rate / kRungFactor;
    }
    report.note("serve_max_rps", max_rps, "1/s");
    return;
  }

  // Traced run: per-layer figures.
  // Fleet sessions open inside add_program; runtime.open_ms here is
  // the primary program's own Project::open_session.
  report_setup_layers(stages, cold_alter_compile_ms, open_ms, report);
  report.note("setup_s", median(totals), "s");
  report.note("setup_stage_sum_s",
              (stage_sum_ms(stages) + stage_sum_ms(turn_stages) +
               median(serve_ms)) * 1e-3,
              "s");
  const Rounds rounds = table1_rounds(fft, *fft_session, 0.15 * budget,
                                      expected[0], report);
  report.layer("hand.latency_vt_ms_p50", median(rounds.hand_vt_ms), "ms");
  report.layer("runtime.latency_vt_ms_p50", median(rounds.sage_vt_ms), "ms");
  report.layer("runtime.run_ms", median(rounds.set_ms), "ms");
  Stream stream;
  stream_window(*fft_session, 0.1 * budget, expected[0], report, stream);
  report.layer("runtime.submit_us", median(stream.submit_us), "us");
  report.layer("runtime.wait_ms", median(stream.wait_ms), "ms");
  report.layer("runtime.occupancy_max", median(stream.occupancy_max), "ratio");
  const Traced traced = traced_runs(*fft_session, 0.15 * budget, expected[0],
                                    report);
  report_traced_layers(traced, report);
  const Kernels kernels = kernel_probes(fft, 0.1 * budget);
  report_kernel_layers(kernels, report);
  const Load ref = drive(server, keys, expected,
                         make_arrivals(static_cast<int>(reference_rps * 0.3 *
                                                        budget),
                                       reference_rps, 2, args.seed),
                         base);
  tally(ref, report);
  report_serve_layers(ref, median(add_ms), report);
}

}  // namespace perfbench
