#include "driver.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "admit/deadline.h"
#include "common/hash.h"
#include "probe.h"

namespace scoreboard {
namespace {

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// steady_clock is CLOCK_MONOTONIC on Linux, so absolute sleeps line up
// with NowNanos().
void SleepUntil(int64_t when_ns) {
  timespec ts;
  ts.tv_sec = when_ns / 1'000'000'000;
  ts.tv_nsec = when_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

struct WorkerQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<uint32_t> ops;  // indices into the phase's op vector
  bool done = false;
};

struct WorkerTally {
  std::vector<double> latency_us[kOpTypes];
  uint64_t failed = 0;
  double service_us = 0;
  int64_t last_completion_ns = 0;
  uint64_t put_bytes = 0;
  double spin_cpu_s = 0;
  std::vector<double> start_lag_us;
};

}  // namespace

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kGet: return "get";
    case OpType::kPut: return "put";
    case OpType::kMultiGet: return "multiget";
  }
  return "?";
}

OpGenerator::OpGenerator(const LoadSpec& spec, uint64_t seed, int workers)
    : spec_(spec),
      seed_(seed),
      workers_(workers),
      zipf_(spec.keys, spec.zipf_s, seed),
      rng_(dstore::Mix64(seed ^ 0x5c0eb0a2d5c0eb0aull)),
      versions_(spec.keys, 1) {}

size_t OpGenerator::DrawSize(dstore::Random* rng) const {
  return spec_.value_min + rng->Uniform(spec_.value_max - spec_.value_min + 1);
}

size_t OpGenerator::PreloadSize(uint32_t key) const {
  dstore::Random rng(dstore::Mix64(seed_ * 31 + key));
  return DrawSize(&rng);
}

dstore::Bytes OpGenerator::PreloadValue(uint32_t key) const {
  return EncodeValue(key, 1, PreloadSize(key), spec_.redundancy);
}

std::vector<Op> OpGenerator::Next(size_t count, double rate) {
  std::vector<Op> ops(count);
  for (size_t i = 0; i < count; ++i) {
    Op& op = ops[i];
    op.due_ns = static_cast<int64_t>(std::llround(i * 1e9 / rate));
    const double u = rng_.NextDouble();
    if (u < spec_.put_share) {
      op.type = OpType::kPut;
      const auto key = static_cast<uint32_t>(zipf_.Next());
      op.keys[0] = key;
      op.version = ++versions_[key];
      op.value = dstore::MakeValue(
          EncodeValue(key, op.version, DrawSize(&rng_), spec_.redundancy));
    } else if (u < spec_.put_share + spec_.multiget_share) {
      op.type = OpType::kMultiGet;
      op.nkeys = static_cast<uint8_t>(spec_.batch);
      op.keys[0] = static_cast<uint32_t>(zipf_.Next());
      const int owner = WorkerFor(op.keys[0], workers_);
      for (int k = 1; k < spec_.batch; ++k) {
        do {
          op.keys[k] = static_cast<uint32_t>(zipf_.Next());
        } while (WorkerFor(op.keys[k], workers_) != owner);
      }
    } else {
      op.keys[0] = static_cast<uint32_t>(zipf_.Next());
    }
  }
  return ops;
}

uint64_t SequenceDigest(const std::vector<Op>& ops) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  auto mix = [&h](uint64_t v) { h = dstore::Mix64(h ^ v) + 0x632be59bd9b4e019ull; };
  for (const Op& op : ops) {
    mix(static_cast<uint64_t>(op.due_ns));
    mix(static_cast<uint64_t>(op.type) << 8 | op.nkeys);
    mix(op.version);
    for (int k = 0; k < op.nkeys; ++k) mix(op.keys[k]);
    if (op.value != nullptr) {
      mix(dstore::Fnv1a64(op.value->data(), op.value->size()));
    }
  }
  return h;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p / 100.0 * values->size());
  const size_t index =
      rank < 1 ? 0 : std::min(values->size(), static_cast<size_t>(rank)) - 1;
  return (*values)[index];
}

double PhaseResult::AllOpPercentile(double p) const {
  std::vector<double> all;
  all.reserve(attempted);
  for (const auto& v : latency_us) all.insert(all.end(), v.begin(), v.end());
  all.insert(all.end(), failed, std::numeric_limits<double>::infinity());
  return Percentile(&all, p);
}

double PhaseResult::MeanLatencyUs() const {
  double sum = 0;
  for (const auto& v : latency_us) {
    for (double x : v) sum += x;
  }
  const uint64_t n = Completed();
  return n == 0 ? 0 : sum / n;
}

bool GeneratorKeptUp(const PhaseResult& result) {
  std::vector<double> lag = result.send_lag_us;
  return !result.aborted && result.achieved_ratio >= 0.9 &&
         Percentile(&lag, 99) <= 20000;
}

bool MeetsSlo(const PhaseResult& result, double slo_p99_us,
              double failed_limit) {
  return GeneratorKeptUp(result) &&
         result.AllOpPercentile(99) <= slo_p99_us &&
         result.FailedRatio() <= failed_limit &&
         result.drain_us <= 4 * slo_p99_us &&
         result.tail_p50_us <= result.head_p50_us + slo_p99_us / 4;
}

int WorkerFor(uint32_t key, int workers) {
  return static_cast<int>(dstore::Mix64(key + 1) % workers);
}

PhaseResult RunPhase(const std::vector<dstore::KeyValueStore*>& stores,
                     Oracle* oracle, const std::vector<Op>& ops,
                     const PhaseOptions& options) {
  const int workers = static_cast<int>(stores.size());
  std::vector<WorkerQueue> queues(workers);
  std::vector<WorkerTally> tallies(workers);
  PhaseResult result;
  result.scheduled = ops.size();
  // Latency by op index; each slot is written by one worker only.
  std::vector<double>& by_index = result.latency_by_op_us;
  by_index.assign(ops.size(), std::numeric_limits<double>::infinity());
  std::atomic<uint64_t> completed{0};
  std::mutex violation_mu;
  std::string violation;

  // Leave the generator room to get ahead of the first op.
  const int64_t t0 = NowNanos() + 2'000'000;

  // Times the store call alone: the oracle checks run after the clock
  // stops, so neither the latency nor the service time includes them.
  auto run_op = [&](const Op& op, uint32_t index, WorkerTally* tally,
                    dstore::KeyValueStore* store) {
    const int64_t due = t0 + op.due_ns;
    if (NowNanos() < due) {
      const double cpu0 = ThreadCpuSeconds();
      while (NowNanos() < due) {
      }
      tally->spin_cpu_s += ThreadCpuSeconds() - cpu0;
    }
    bool ok = true;
    std::string bad;
    int64_t start = 0, end = 0;
    if (options.trace) SpanRecorder::SetCurrentOp(index + 1);
    switch (op.type) {
      case OpType::kPut: {
        const uint32_t key = op.keys[0];
        const std::string name = KeyName(key);
        oracle->BeginPut(key, op.version);
        start = NowNanos();
        const dstore::Status status = store->Put(name, op.value);
        end = NowNanos();
        if (status.ok()) {
          oracle->AckPut(key, op.version,
                         static_cast<uint32_t>(op.value->size()));
          tally->put_bytes += op.value->size();
        } else {
          ok = false;
        }
        break;
      }
      case OpType::kGet: {
        const uint32_t key = op.keys[0];
        const std::string name = KeyName(key);
        const uint32_t floor = oracle->Acked(key);
        start = NowNanos();
        const auto value = store->Get(name);
        end = NowNanos();
        if (!value.ok() && !value.status().IsNotFound()) {
          ok = false;
        } else {
          bad = oracle->CheckRead(key, floor, value);
        }
        break;
      }
      case OpType::kMultiGet: {
        std::vector<std::string> names(op.nkeys);
        uint32_t floors[kMaxBatch];
        for (int k = 0; k < op.nkeys; ++k) {
          names[k] = KeyName(op.keys[k]);
          floors[k] = oracle->Acked(op.keys[k]);
        }
        start = NowNanos();
        const auto values = store->MultiGet(names);
        end = NowNanos();
        if (values.size() != names.size()) {
          bad = "MultiGet returned " + std::to_string(values.size()) +
                " results for " + std::to_string(names.size()) + " keys";
          break;
        }
        for (int k = 0; k < op.nkeys && bad.empty(); ++k) {
          if (!values[k].ok() && !values[k].status().IsNotFound()) {
            ok = false;
          } else {
            bad = oracle->CheckRead(op.keys[k], floors[k], values[k]);
          }
        }
        break;
      }
    }
    if (options.trace) SpanRecorder::SetCurrentOp(0);
    if (!bad.empty()) {
      std::lock_guard<std::mutex> lock(violation_mu);
      if (violation.empty()) violation = bad;
    }
    if (ok) {
      const double latency = (end - (t0 + op.due_ns)) / 1e3;
      tally->latency_us[static_cast<int>(op.type)].push_back(latency);
      by_index[index] = latency;
    } else {
      ++tally->failed;
    }
    tally->service_us += (end - start) / 1e3;
    tally->start_lag_us.push_back((start - due) / 1e3);
    tally->last_completion_ns = end;
    completed.fetch_add(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerQueue& queue = queues[w];
      for (;;) {
        uint32_t index;
        {
          std::unique_lock<std::mutex> lock(queue.mu);
          queue.cv.wait(lock,
                        [&queue] { return queue.done || !queue.ops.empty(); });
          if (queue.ops.empty()) return;
          index = queue.ops.front();
          queue.ops.pop_front();
        }
        if (options.deadline_ns > 0) {
          dstore::admit::ScopedDeadline deadline(
              dstore::admit::Deadline::After(options.deadline_ns));
          run_op(ops[index], index, &tallies[w], stores[w]);
        } else {
          run_op(ops[index], index, &tallies[w], stores[w]);
        }
      }
    });
  }

  // Generator: this thread. A 1 ns timer slack makes the absolute sleeps
  // wake on time instead of up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  result.send_lag_us.reserve(ops.size());
  int64_t first_release = 0, last_release = 0, last_tick = t0;
  size_t released = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const int64_t due = t0 + op.due_ns - kLeadNs;
    int64_t now = NowNanos();
    if (now < due) {
      SleepUntil(due);
      now = NowNanos();
    }
    if (options.abort_backlog > 0 &&
        released - completed.load(std::memory_order_acquire) >
            options.abort_backlog) {
      result.aborted = true;
      break;
    }
    result.send_lag_us.push_back((now - due) / 1e3);
    if (released == 0) first_release = now;
    last_release = now;
    const int w = WorkerFor(op.keys[0], workers);
    {
      std::lock_guard<std::mutex> lock(queues[w].mu);
      queues[w].ops.push_back(static_cast<uint32_t>(i));
    }
    queues[w].cv.notify_one();
    ++released;
    if (options.tick && now - last_tick > 50'000'000) {
      options.tick();
      last_tick = now;
    }
  }
  for (WorkerQueue& queue : queues) {
    {
      std::lock_guard<std::mutex> lock(queue.mu);
      queue.done = true;
    }
    queue.cv.notify_one();
  }
  for (std::thread& t : threads) t.join();

  result.attempted = released;
  int64_t last_completion = t0;
  for (WorkerTally& tally : tallies) {
    for (int t = 0; t < kOpTypes; ++t) {
      auto& into = result.latency_us[t];
      into.insert(into.end(), tally.latency_us[t].begin(),
                  tally.latency_us[t].end());
    }
    result.failed += tally.failed;
    result.service_us_sum += tally.service_us;
    result.put_bytes_acked += tally.put_bytes;
    result.spin_cpu_s += tally.spin_cpu_s;
    result.start_lag_us.insert(result.start_lag_us.end(),
                               tally.start_lag_us.begin(),
                               tally.start_lag_us.end());
    last_completion = std::max(last_completion, tally.last_completion_ns);
  }
  if (released >= 2) {
    const double scheduled_span =
        static_cast<double>(ops[released - 1].due_ns - ops[0].due_ns);
    const double actual_span = static_cast<double>(last_release - first_release);
    result.achieved_ratio =
        actual_span <= 0 ? 1.0 : std::min(1.0, scheduled_span / actual_span);
  } else {
    result.achieved_ratio = released == ops.size() ? 1.0 : 0.0;
  }
  if (released > 0) {
    result.drain_us = (last_completion - (t0 + ops[released - 1].due_ns)) / 1e3;
  }
  std::vector<double> head(by_index.begin(), by_index.begin() + released / 2);
  std::vector<double> tail(by_index.begin() + released - released / 20,
                           by_index.begin() + released);
  result.head_p50_us = Percentile(&head, 50);
  result.tail_p50_us = Percentile(&tail, 50);
  result.violation = violation;
  return result;
}

double SearchSloRate(const std::function<bool(double)>& passes, double lo,
                     double hi, double resolution,
                     std::vector<std::pair<double, bool>>* steps) {
  while (hi / lo > resolution) {
    const double mid = std::sqrt(lo * hi);
    const bool ok = passes(mid);
    if (steps != nullptr) steps->emplace_back(mid, ok);
    (ok ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace scoreboard
