// The end-to-end scoreboard driver. One run drives one workload open-loop
// and prints its metrics; see scoreboard/README.md.
//
//   scoreboard --workload NAME --seed N --seconds S --trace 0|1
//              [--data-dir DIR] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics (latency at the nominal rate,
// slo_ops_per_s, set-up time, CPU and memory); --trace 1 rebuilds the
// stack with probes between its layers and prints the per-layer metrics.
// Every value read is checked by the oracle, and every key is re-read at
// the end; a violation fails the run with no numbers.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "driver.h"
#include "obs/build_info.h"
#include "oracle.h"
#include "probe.h"
#include "stacks.h"

namespace scoreboard {
namespace {

// --seconds is split between kNominalWindows windows at the nominal rate
// (kNominalShare each) and the SLO search (kSearchShare, in kSearchSteps
// windows over [nominal, kSearchCeiling x nominal]). A --trace 1 run has
// one untraced and one traced window.
//
// Other tenants of a shared host stall it for tens of milliseconds to
// seconds at a time. The p50s come from the best window (a window the host
// left alone measures the program); the p99s and cpu_us_per_op pool every
// window.
constexpr int kNominalWindows = 10;
constexpr double kNominalShare = 0.075;
constexpr double kSearchShare = 0.25;
constexpr double kWarmupSeconds = 0.5;
// A nominal window is abandoned only if a second's worth of ops backs up.
constexpr double kNominalAbortSeconds = 1.0;
// setup_s is the median of at least kSetups set-ups, repeated (up to
// kMaxSetups) until kSetupSeconds have gone into them: a set-up of the
// composed stack takes a third of a second and its fsyncs vary.
constexpr int kSetups = 5;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 4;
constexpr int kSearchSteps = 5;  // resolution 10^(1/32): 7.5%
constexpr double kSearchCeiling = 10.0;
// A step that misses the SLO is run once more before it counts as a miss,
// so one host stall does not end the search low; the step length budgets
// for that many reruns.
constexpr int kSearchRuns = kSearchSteps + 2;
// A traced window fails unless at least this share of the time inside the
// store calls is attributed to the probes below the outermost one.
constexpr double kMinCoverage = 0.6;

// End-to-end metrics in the --trace 0 result line: those whose spread over
// ten seeds stayed well inside their BENCHMARK.json bound on a shared
// 4-CPU host. The latency percentiles and slo_ops_per_s moved by 20-250%
// between runs there and are printed in the report lines only.
const std::set<std::string> kResultEndToEnd = {
    "setup_s", "cpu_us_per_op", "peak_rss_mb",
};

// Per-layer metrics in the --trace 1 result line: the driver and probe
// checks, which every workload has, and the layers' counts and ratios
// (0 where a workload's stack lacks the layer). Layer times appear only in
// the report lines above it: a layer a workload does not use has no time.
const std::set<std::string> kResultPerLayer = {
    "driver.send_lag_p99_us", "driver.achieved_ratio",
    "probe.overhead_us_per_op", "probe.coverage",
    "dscl.hit_ratio", "cache.evictions_per_op", "compress.ratio",
    "admit.server_shed", "admit.rejected", "resilient.retries_per_op",
    "shard.hot_share", "replica.read_repairs", "replica.lag_max",
    "lsm.flushes", "lsm.compactions", "lsm.compaction_debt_mb",
    "lsm.l0_files_max", "lsm.bloom_negative_ratio", "write_amp", "space_amp",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir = ".bench_data";
  std::string source_digest = "unknown";
};

// Exits without running destructors: server and replicator threads may
// still be live. scoreboard/run.py removes the data directory.
[[noreturn]] void Fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "scoreboard: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Fail("--seconds must be positive");
  return args;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
}

// A "Key: value" field of a /proc file, as a number (0 if absent).
double ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sampled statistic
};

// Ordered metric list printed both as report lines and as the result.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  void PrintReport() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %16.6f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 0) {
        std::printf(" samples=%llu", static_cast<unsigned long long>(m.samples));
      }
      std::printf("\n");
    }
  }
  // The result object's metrics: those `only` names.
  std::string Json(const std::set<std::string>& only) const {
    std::string out = "{";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (only.count(m.name) == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Counters and sampled gauges around a window.
struct Window {
  std::map<std::string, double> before, after, gauge_max;
  double cpu_s = 0;
  double write_bytes = 0;

  double Delta(const std::string& key) const {
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  }
  double Gauge(const std::string& key) const {
    auto it = gauge_max.find(key);
    return it == gauge_max.end() ? 0 : it->second;
  }
};

class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        workers_(std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) - 1)),
        data_root_(std::filesystem::path(args.data_dir) /
                   (spec.name + "-" + std::to_string(getpid()))) {}

  ~Run() {
    stack_.reset();
    std::error_code ec;
    std::filesystem::remove_all(data_root_, ec);
  }

  int Main();

 private:
  // Builds a fresh stack (dropping the previous one); returns set-up time.
  double Setup(const std::string& tag, bool traced);
  // Runs `seconds` of ops at `rate`. `abort_after_s`: stop releasing once
  // this many seconds' worth of ops are outstanding.
  PhaseResult Phase(double rate, double seconds, bool trace, Window* window,
                    double abort_after_s);
  // `replay`: a retry first rebuilds the stack, so every attempt runs the
  // same op sequence.
  PhaseResult NominalWindow(bool trace, bool replay, Window* window);
  void CheckFinalState();
  // The layers every traced window must record blocking-path spans from.
  std::vector<Layer> ProbedLayers() const {
    if (spec_.cloud) {
      return {Layer::kDscl, Layer::kCache, Layer::kCompress, Layer::kCrypto,
              Layer::kCloud};
    }
    return {Layer::kAdmit, Layer::kResilient, Layer::kShard, Layer::kReplica,
            Layer::kLsm};
  }
  bool Passes(const PhaseResult& result) const {
    return MeetsSlo(result, spec_.slo_p99_us, spec_.failed_limit);
  }
  void PrintHeader() const;
  void PrintResult(const Metrics& metrics, uint64_t attempted,
                   uint64_t failed, const std::set<std::string>& only) const;
  int MainEndToEnd();
  int MainTraced();

  const Args args_;
  const WorkloadSpec& spec_;
  const int workers_;
  const std::filesystem::path data_root_;
  std::unique_ptr<OpGenerator> generator_;
  std::unique_ptr<Oracle> oracle_;
  std::unique_ptr<Stack> stack_;
  std::filesystem::path stack_dir_;  // data directory of stack_
  std::vector<Op> last_ops_;  // the most recent phase's schedule
  int setups_ = 0;
};

double Run::Setup(const std::string& tag, bool traced) {
  stack_.reset();
  std::error_code ec;
  if (!stack_dir_.empty()) std::filesystem::remove_all(stack_dir_, ec);
  generator_ = std::make_unique<OpGenerator>(spec_.load, args_.seed, workers_);
  oracle_ = std::make_unique<Oracle>(spec_.load.keys);
  stack_dir_ = data_root_ / (tag + "-" + std::to_string(setups_++));
  const double start = NowSeconds();
  std::string error;
  stack_ = BuildStack(spec_, *generator_, stack_dir_, workers_, traced,
                      oracle_.get(), &error);
  const double elapsed = NowSeconds() - start;
  if (stack_ == nullptr) Fail("set-up failed: " + error);
  return elapsed;
}

PhaseResult Run::Phase(double rate, double seconds, bool trace,
                       Window* window, double abort_after_s) {
  const auto count = static_cast<size_t>(std::max(1.0, rate * seconds));
  last_ops_ = generator_->Next(count, rate);
  const std::vector<Op>& ops = last_ops_;
  PhaseOptions options;
  options.deadline_ns = spec_.deadline_ns;
  options.trace = trace;
  options.abort_backlog =
      static_cast<size_t>(std::max(4.0 * workers_, rate * abort_after_s));
  if (window != nullptr) {
    window->before = stack_->Counters();
    window->gauge_max = stack_->Gauges();
    options.tick = [this, window] {
      for (const auto& [key, value] : stack_->Gauges()) {
        double& slot = window->gauge_max[key];
        slot = std::max(slot, value);
      }
    };
  }
  const double cpu0 = CpuSeconds();
  const double io0 = ProcField("/proc/self/io", "write_bytes");
  PhaseResult result = RunPhase(stack_->Stores(), oracle_.get(), ops, options);
  if (window != nullptr) {
    window->cpu_s = CpuSeconds() - cpu0 - result.spin_cpu_s;
    window->write_bytes = ProcField("/proc/self/io", "write_bytes") - io0;
    window->after = stack_->Counters();
    for (const auto& [key, value] : stack_->Gauges()) {
      double& slot = window->gauge_max[key];
      slot = std::max(slot, value);
    }
  }
  if (!result.violation.empty()) {
    Fail("oracle violation: " + result.violation);
  }
  return result;
}

// The window at the nominal rate. One whose generator fell behind its
// schedule measured the driver, not the program: it is repeated (up to
// kAttempts windows in all), and if none keeps up the run is invalid.
PhaseResult Run::NominalWindow(bool trace, bool replay, Window* window) {
  constexpr int kAttempts = 3;
  std::string why;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    if (replay && attempt > 1) {
      // Rebuilding also joins every thread that may still hold a span
      // open, so the discarded window's spans can be dropped safely.
      Setup(trace ? "traced" : "plain", trace);
      Phase(spec_.nominal_rate, kWarmupSeconds, false, nullptr,
            kNominalAbortSeconds);
    }
    if (trace) {
      SpanRecorder::Global().Take();
      SpanRecorder::Global().Enable(true);
    }
    PhaseResult result =
        Phase(spec_.nominal_rate, args_.seconds * kNominalShare, trace,
              window, kNominalAbortSeconds);
    SpanRecorder::Global().Enable(false);
    if (GeneratorKeptUp(result)) return result;
    std::vector<double> lag = result.send_lag_us;
    why = std::string(result.aborted ? "backlog abort, " : "") +
          "achieved ratio " + Number(result.achieved_ratio) +
          ", send lag p99 " + Number(Percentile(&lag, 99)) + " us";
    std::printf("# nominal window %d discarded: generator fell behind (%s)\n",
                attempt, why.c_str());
  }
  Fail("invalid run: the generator fell behind in every nominal window (" +
       why + ")");
}

void Run::CheckFinalState() {
  uint64_t checked = 0;
  const std::string bad = stack_->VerifyAll(*oracle_, workers_, &checked);
  if (!bad.empty()) Fail("final-state check: " + bad);
  std::printf("# final-state check: %llu keys match their last acknowledged "
              "write\n",
              static_cast<unsigned long long>(checked));
}

void Run::PrintHeader() const {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  const LoadSpec& load = spec_.load;
  std::printf("# scoreboard workload=%s seed=%llu seconds=%g trace=%d\n",
              spec_.name.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace);
  std::printf(
      "# meta {\"host\": %s, \"nproc\": %ld, \"cpu_model\": %s, "
      "\"git_sha\": %s, \"source_digest\": %s, \"build_type\": %s, "
      "\"sanitizer\": %s, \"seed\": %llu, \"workers\": %d}\n",
      JsonString(host).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(CpuModel()).c_str(),
      JsonString(dstore::obs::BuildGitSha()).c_str(),
      JsonString(args_.source_digest).c_str(),
      JsonString(dstore::obs::BuildTypeName()).c_str(),
      JsonString(dstore::obs::BuildSanitizer()).c_str(),
      static_cast<unsigned long long>(args_.seed), workers_);
  std::printf(
      "# workload {\"stack\": %s, \"keys\": %u, \"zipf_s\": %g, "
      "\"value_bytes\": [%zu, %zu], \"redundancy\": %g, \"mix\": {\"get\": "
      "%g, \"put\": %g, \"multiget\": %g, \"batch\": %d}, \"nominal_ops_per_s\": "
      "%g, \"slo_p99_us\": %g, \"failed_limit\": %g, \"deadline_ms\": %g, "
      "\"flush_policy\": %s}\n",
      JsonString(spec_.stack).c_str(), load.keys, load.zipf_s, load.value_min,
      load.value_max, load.redundancy,
      1 - load.put_share - load.multiget_share, load.put_share,
      load.multiget_share, load.batch, spec_.nominal_rate, spec_.slo_p99_us,
      spec_.failed_limit, spec_.deadline_ns / 1e6,
      JsonString(spec_.flush_policy).c_str());
}

// Prints every metric as a report line, then the result object with the
// metrics `only` names.
void Run::PrintResult(const Metrics& metrics, uint64_t attempted,
                      uint64_t failed,
                      const std::set<std::string>& only) const {
  metrics.PrintReport();
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.Json(only).c_str());
  std::fflush(stdout);
}

// `type`'s p50 from the best window and p99 over every window's samples.
void AddLatency(Metrics* metrics, std::vector<PhaseResult>& windows,
                OpType type) {
  const int t = static_cast<int>(type);
  std::vector<double> pooled;
  double best_p50 = std::numeric_limits<double>::infinity();
  for (PhaseResult& w : windows) {
    if (w.latency_us[t].empty()) continue;
    pooled.insert(pooled.end(), w.latency_us[t].begin(),
                  w.latency_us[t].end());
    best_p50 = std::min(best_p50, Percentile(&w.latency_us[t], 50));
  }
  const uint64_t n = pooled.size();
  if (n == 0) return;
  const std::string name = OpTypeName(type);
  if (n < 1000) {
    std::printf("# warning: %s p99 rests on %llu samples (< 1000)\n",
                name.c_str(), static_cast<unsigned long long>(n));
  }
  metrics->Add(name + "_p50_us", best_p50, "us", n);
  metrics->Add(name + "_p99_us", Percentile(&pooled, 99), "us", n);
}

int Run::MainEndToEnd() {
  std::vector<double> setups = {Setup("e2e", false)};
  const double rate = spec_.nominal_rate;
  Phase(rate, kWarmupSeconds, false, nullptr, kNominalAbortSeconds);
  std::vector<PhaseResult> windows;
  std::vector<Window> counters(kNominalWindows);
  for (Window& counter : counters) {
    windows.push_back(NominalWindow(false, false, &counter));
  }
  // Before the SLO search, whose overload windows hold large backlogs.
  const double peak_rss_mb = ProcField("/proc/self/status", "VmHWM") / 1024;

  // slo_ops_per_s: geometric bisection over [nominal, ceiling x nominal],
  // or below nominal if most nominal windows miss the SLO.
  int passing = 0;
  for (const PhaseResult& w : windows) passing += Passes(w);
  const double step_s = args_.seconds * kSearchShare / kSearchRuns;
  const double resolution =
      std::pow(kSearchCeiling, 1.0 / (1 << kSearchSteps)) * 1.0001;
  // Once four SLOs' worth of ops are outstanding the step has missed the
  // SLO; stop releasing instead of building a long drain.
  auto probe = [&](double r) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (Passes(Phase(r, step_s, false, nullptr,
                       4 * spec_.slo_p99_us / 1e6))) {
        return true;
      }
    }
    return false;
  };
  std::vector<std::pair<double, bool>> steps;
  double slo_rate = 0;
  if (2 * passing > kNominalWindows) {
    slo_rate = SearchSloRate(probe, rate, rate * kSearchCeiling, resolution,
                             &steps);
  } else {
    std::printf("# nominal rate misses the SLO in %d of %d windows\n",
                kNominalWindows - passing, kNominalWindows);
    slo_rate = SearchSloRate(probe, rate / kSearchCeiling, rate, resolution,
                             &steps);
  }
  for (const auto& [r, ok] : steps) {
    std::printf("# slo search: %.1f ops/s %s\n", r, ok ? "meets" : "misses");
  }
  CheckFinalState();
  const double space_amp =
      spec_.cloud ? 0
                  : static_cast<double>(stack_->DiskBytes()) /
                        oracle_->LiveBytes();

  // The other set-ups run after the measurement, so neither the windows
  // nor peak_rss_mb carry their leftovers.
  double setup_total = setups[0];
  while (static_cast<int>(setups.size()) < kSetups ||
         (setup_total < kSetupSeconds &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    setups.push_back(Setup("e2e", false));
    setup_total += setups.back();
  }
  std::printf("# setup_s runs:");
  for (double s : setups) std::printf(" %s", Number(s).c_str());
  std::printf("\n");

  uint64_t attempted = 0, failed = 0, completed = 0;
  double write_bytes = 0, put_bytes = 0;
  std::vector<double> send_lag, start_lag, all;
  for (size_t i = 0; i < windows.size(); ++i) {
    attempted += windows[i].attempted;
    failed += windows[i].failed;
    completed += windows[i].Completed();
    write_bytes += counters[i].write_bytes;
    put_bytes += windows[i].put_bytes_acked;
    send_lag.insert(send_lag.end(), windows[i].send_lag_us.begin(),
                    windows[i].send_lag_us.end());
    start_lag.insert(start_lag.end(), windows[i].start_lag_us.begin(),
                     windows[i].start_lag_us.end());
    for (const auto& v : windows[i].latency_us) {
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  all.insert(all.end(), failed, std::numeric_limits<double>::infinity());

  Metrics metrics;
  metrics.Add("setup_s", Median(setups), "s", setups.size());
  AddLatency(&metrics, windows, OpType::kGet);
  AddLatency(&metrics, windows, OpType::kPut);
  metrics.Add("slo_ops_per_s", slo_rate, "ops/s", steps.size());
  // CPU over every window: the host's speed drifts by up to a third over
  // tens of seconds, and a single window's figure drifts with it.
  double cpu_s = 0;
  std::printf("# cpu_us_per_op windows:");
  for (size_t i = 0; i < windows.size(); ++i) {
    cpu_s += counters[i].cpu_s;
    std::printf(" %s",
                Number(counters[i].cpu_s * 1e6 / windows[i].Completed()).c_str());
  }
  std::printf("\n");
  metrics.Add("cpu_us_per_op", cpu_s * 1e6 / completed, "us", completed);
  metrics.Add("peak_rss_mb", peak_rss_mb, "MB");

  AddLatency(&metrics, windows, OpType::kMultiGet);
  metrics.Add("failed_ratio", attempted == 0 ? 0 : double(failed) / attempted,
              "ratio", attempted);
  metrics.Add("all_p99_us", Percentile(&all, 99), "us", attempted);
  metrics.Add("driver.send_lag_p99_us", Percentile(&send_lag, 99), "us",
              send_lag.size());
  metrics.Add("driver.start_lag_p50_us", Percentile(&start_lag, 50), "us",
              start_lag.size());
  double achieved = 1;
  for (const PhaseResult& w : windows) {
    achieved = std::min(achieved, w.achieved_ratio);
  }
  metrics.Add("driver.achieved_ratio", achieved, "ratio");
  if (!spec_.cloud) {
    metrics.Add("write_amp", write_bytes / put_bytes, "ratio");
    metrics.Add("space_amp", space_amp, "ratio");
  }
  PrintResult(metrics, attempted, failed, kResultEndToEnd);
  return 0;
}

int Run::MainTraced() {
  // Untraced reference window: probe overhead and the end-to-end metrics
  // that only some workloads have.
  Setup("plain", false);
  const double rate = spec_.nominal_rate;
  Phase(rate, kWarmupSeconds, false, nullptr, kNominalAbortSeconds);
  Window plain_window;
  PhaseResult plain = NominalWindow(false, true, &plain_window);
  const uint64_t plain_digest = SequenceDigest(last_ops_);
  CheckFinalState();
  const double space_amp =
      spec_.cloud ? 0
                  : static_cast<double>(stack_->DiskBytes()) /
                        oracle_->LiveBytes();

  // Traced window: same seed, same op sequence, probes between layers.
  Setup("traced", true);
  Phase(rate, kWarmupSeconds, false, nullptr, kNominalAbortSeconds);
  Window window;
  PhaseResult traced = NominalWindow(true, true, &window);
  if (SequenceDigest(last_ops_) != plain_digest) {
    Fail("the traced and untraced windows ran different op sequences");
  }
  CheckFinalState();
  const auto [compress_in, compress_out] = stack_->CompressBytes();
  stack_.reset();  // joins every thread that may hold an open span
  const SpanRollup spans =
      RollUp(SpanRecorder::Global().Take(), traced.scheduled);

  const double ops = static_cast<double>(traced.Completed());
  auto mean_us = [](const LayerCallStats& s, bool self) {
    if (s.count == 0) return 0.0;
    return (self ? s.self_ns : s.total_ns) / s.count / 1e3;
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };

  Metrics metrics;
  std::vector<double> lag = traced.send_lag_us;
  metrics.Add("driver.send_lag_p99_us", Percentile(&lag, 99), "us",
              lag.size());
  metrics.Add("driver.achieved_ratio", traced.achieved_ratio, "ratio");

  // DSCL and its cache / transform layers.
  metrics.Add("dscl.get_self_us",
              mean_us(spans.On(Layer::kDscl, Call::kGet), true), "us",
              spans.On(Layer::kDscl, Call::kGet).count);
  metrics.Add("dscl.put_self_us",
              mean_us(spans.On(Layer::kDscl, Call::kPut), true), "us",
              spans.On(Layer::kDscl, Call::kPut).count);
  const double hits = window.Delta("dscl.hits");
  metrics.Add("dscl.hit_ratio", ratio(hits, hits + window.Delta("dscl.misses")),
              "ratio");
  metrics.Add("cache.get_us", mean_us(spans.On(Layer::kCache, Call::kGet), false),
              "us", spans.On(Layer::kCache, Call::kGet).count);
  metrics.Add("cache.put_us", mean_us(spans.On(Layer::kCache, Call::kPut), false),
              "us", spans.On(Layer::kCache, Call::kPut).count);
  metrics.Add("cache.evictions_per_op",
              ratio(window.Delta("cache.evictions"), ops), "count");
  metrics.Add("compress.apply_us",
              mean_us(spans.On(Layer::kCompress, Call::kApply), false), "us",
              spans.On(Layer::kCompress, Call::kApply).count);
  metrics.Add("compress.reverse_us",
              mean_us(spans.On(Layer::kCompress, Call::kReverse), false), "us",
              spans.On(Layer::kCompress, Call::kReverse).count);
  metrics.Add("compress.ratio",
              ratio(static_cast<double>(compress_out), compress_in), "ratio");
  metrics.Add("crypto.apply_us",
              mean_us(spans.On(Layer::kCrypto, Call::kApply), false), "us",
              spans.On(Layer::kCrypto, Call::kApply).count);
  metrics.Add("crypto.reverse_us",
              mean_us(spans.On(Layer::kCrypto, Call::kReverse), false), "us",
              spans.On(Layer::kCrypto, Call::kReverse).count);

  // Cloud client, server and the wire between them.
  const LayerCallStats cloud = spans.OnAll(Layer::kCloud);
  const double client_us = mean_us(cloud, false);
  const double server_us =
      ratio(window.Delta("server.request_ms.sum"),
            window.Delta("server.request_ms.count")) * 1e3;
  metrics.Add("cloud.client_us", client_us, "us", cloud.count);
  metrics.Add("cloud.server_request_us", server_us, "us",
              static_cast<uint64_t>(window.Delta("server.request_ms.count")));
  metrics.Add("net.wire_us", cloud.count == 0 ? 0 : client_us - server_us,
              "us");
  // The server's queue records waits only for requests that queued; the
  // mean is over every request it served.
  metrics.Add("admit.queue_wait_us",
              ratio(window.Delta("admit.queue_wait_ms.sum"),
                    window.Delta("server.request_ms.count")) * 1e3,
              "us", static_cast<uint64_t>(window.Delta("admit.queue_wait_ms.count")));
  metrics.Add("admit.server_shed", window.Delta("admit.server_shed"), "count");

  // Composed stack.
  const LayerCallStats admit = spans.OnAll(Layer::kAdmit);
  metrics.Add("admit.self_us", mean_us(admit, true), "us", admit.count);
  metrics.Add("admit.rejected", window.Delta("admit.rejected"), "count");
  const LayerCallStats resilient = spans.OnAll(Layer::kResilient);
  metrics.Add("resilient.self_us", mean_us(resilient, true), "us",
              resilient.count);
  metrics.Add("resilient.retries_per_op",
              ratio(window.Delta("resilient.retries"), ops), "count");
  const LayerCallStats shard = spans.OnAll(Layer::kShard);
  metrics.Add("shard.self_us", mean_us(shard, true), "us", shard.count);
  // Time inside ShardedStore per MultiGet (ops are numbered from 1).
  double multiget_shard_ns = 0;
  uint64_t multigets = 0;
  const auto& shard_ns = spans.op_layer_ns[static_cast<int>(Layer::kShard)];
  for (size_t i = 0; i < last_ops_.size() && i + 1 < shard_ns.size(); ++i) {
    if (last_ops_[i].type != OpType::kMultiGet) continue;
    multiget_shard_ns += shard_ns[i + 1];
    ++multigets;
  }
  metrics.Add("shard.multiget_us", ratio(multiget_shard_ns / 1e3, multigets),
              "us", multigets);
  const auto& shard_tags = spans.tag_counts[static_cast<int>(Layer::kReplica)];
  uint64_t shard_ops = 0, hottest = 0;
  for (uint64_t c : shard_tags) {
    shard_ops += c;
    hottest = std::max(hottest, c);
  }
  metrics.Add("shard.hot_share", ratio(hottest, shard_ops), "ratio", shard_ops);
  metrics.Add("replica.put_self_us",
              mean_us(spans.On(Layer::kReplica, Call::kPut), true), "us",
              spans.On(Layer::kReplica, Call::kPut).count);
  metrics.Add("replica.get_self_us",
              mean_us(spans.On(Layer::kReplica, Call::kGet), true), "us",
              spans.On(Layer::kReplica, Call::kGet).count);
  metrics.Add("replica.read_repairs", window.Delta("replica.read_repairs"),
              "count");
  metrics.Add("replica.lag_max", window.Gauge("replica.lag_max"), "count");
  metrics.Add("replica.backup_apply_us",
              mean_us(spans.Off(Layer::kLsm, Call::kPut), false), "us",
              spans.Off(Layer::kLsm, Call::kPut).count);
  metrics.Add("lsm.put_us", mean_us(spans.On(Layer::kLsm, Call::kPut), false),
              "us", spans.On(Layer::kLsm, Call::kPut).count);
  metrics.Add("lsm.get_us", mean_us(spans.On(Layer::kLsm, Call::kGet), false),
              "us", spans.On(Layer::kLsm, Call::kGet).count);
  metrics.Add("lsm.flushes", window.Delta("lsm.flushes"), "count");
  metrics.Add("lsm.compactions", window.Delta("lsm.compactions"), "count");
  metrics.Add("lsm.compaction_debt_mb", window.Gauge("lsm.compaction_debt_mb"),
              "MB");
  metrics.Add("lsm.l0_files_max", window.Gauge("lsm.l0_files_max"), "count");
  metrics.Add("lsm.bloom_negative_ratio",
              ratio(window.Delta("lsm.bloom_negatives"),
                    window.Delta("lsm.bloom_checks")),
              "ratio");

  // Probe validity: cost of the probes, and how much of the blocking path
  // their self times account for.
  // Both windows ran the same op sequence (checked above), so ops pair up
  // by index; the median paired difference is robust to the stalls that
  // dominate a difference of means.
  std::vector<double> paired;
  const size_t pairs = std::min(plain.latency_by_op_us.size(),
                                traced.latency_by_op_us.size());
  for (size_t i = 0; i < pairs; ++i) {
    const double d = traced.latency_by_op_us[i] - plain.latency_by_op_us[i];
    if (std::isfinite(d)) paired.push_back(d);
  }
  const uint64_t paired_n = paired.size();
  std::printf("# probe overhead: mean latency traced %.3f us, untraced %.3f "
              "us\n",
              traced.MeanLatencyUs(), plain.MeanLatencyUs());
  metrics.Add("probe.overhead_us_per_op", Percentile(&paired, 50), "us",
              paired_n);
  double coverage = 0;
  const std::string uncovered =
      CheckCoverage(spans, ProbedLayers(), traced.service_us_sum * 1e3,
                    kMinCoverage, &coverage);
  if (!uncovered.empty()) Fail("probe coverage check: " + uncovered);
  metrics.Add("probe.coverage", coverage, "ratio");
  std::printf("# probe coverage check: ok (%.3f of blocking-path time is "
              "attributed below the outermost probe)\n",
              coverage);

  // Workload-level metrics from the untraced window.
  auto& multiget = plain.latency_us[static_cast<int>(OpType::kMultiGet)];
  const uint64_t multiget_n = multiget.size();
  metrics.Add("multiget_p50_us", Percentile(&multiget, 50), "us", multiget_n);
  metrics.Add("multiget_p99_us", Percentile(&multiget, 99), "us", multiget_n);
  metrics.Add("write_amp",
              ratio(plain_window.write_bytes, plain.put_bytes_acked), "ratio");
  metrics.Add("space_amp", space_amp, "ratio");

  PrintResult(metrics, traced.attempted, traced.failed, kResultPerLayer);
  return 0;
}

int Run::Main() {
  if (std::string(dstore::obs::BuildTypeName()) != "Release" ||
      std::string(dstore::obs::BuildSanitizer()) != "none") {
    Fail(std::string("refusing to report numbers from a ") +
         dstore::obs::BuildTypeName() + " build with sanitizer " +
         dstore::obs::BuildSanitizer() + " (need Release, none)");
  }
  PrintHeader();
  // Generator validity: the same seed must give the same op sequence.
  {
    OpGenerator a(spec_.load, args_.seed, workers_),
        b(spec_.load, args_.seed, workers_);
    const uint64_t da = SequenceDigest(a.Next(4096, spec_.nominal_rate));
    const uint64_t db = SequenceDigest(b.Next(4096, spec_.nominal_rate));
    if (da != db) Fail("op generator is not deterministic for one seed");
    std::printf("# op sequence digest %016llx (seed %llu, repeatable)\n",
                static_cast<unsigned long long>(da),
                static_cast<unsigned long long>(args_.seed));
  }
  return args_.trace != 0 ? MainTraced() : MainEndToEnd();
}

}  // namespace
}  // namespace scoreboard

int main(int argc, char** argv) {
  // Cap malloc at one arena per CPU. With glibc's default (eight per CPU)
  // peak RSS depends on which of the stack's threads touched which arena
  // and varies by a third from run to run; fewer arenas than allocating
  // threads would serialize them instead.
  mallopt(M_ARENA_MAX,
          std::max(4, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))));
  const scoreboard::Args args = scoreboard::ParseArgs(argc, argv);
  const scoreboard::WorkloadSpec* spec =
      scoreboard::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const auto& n : scoreboard::WorkloadNames()) names += " " + n;
    scoreboard::Fail("unknown --workload '" + args.workload + "' (one of:" +
                     names + ")");
  }
  scoreboard::Run run(args, *spec);
  return run.Main();
}
