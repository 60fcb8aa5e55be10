// Self-test of the scoreboard's own machinery: percentile math, the op
// generator's determinism, the oracle, span self times, and the
// slo_ops_per_s search against a synthetic store whose service time is a
// known fixed delay. Run with `python3 scoreboard/run.py --self-test`.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "driver.h"
#include "oracle.h"
#include "probe.h"

namespace scoreboard {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Every op busy-waits exactly `delay_us`, so a single worker serves at most
// 1e6 / delay_us ops/s.
class FixedDelayStore : public dstore::KeyValueStore {
 public:
  explicit FixedDelayStore(int64_t delay_us) : delay_us_(delay_us) {}
  dstore::Status Put(const std::string&, dstore::ValuePtr) override {
    Spin();
    return dstore::Status::OK();
  }
  dstore::StatusOr<dstore::ValuePtr> Get(const std::string&) override {
    Spin();
    return dstore::Status::NotFound("synthetic");
  }
  dstore::Status Delete(const std::string&) override {
    return dstore::Status::OK();
  }
  dstore::StatusOr<bool> Contains(const std::string&) override { return false; }
  dstore::StatusOr<std::vector<std::string>> ListKeys() override {
    return std::vector<std::string>();
  }
  dstore::StatusOr<size_t> Count() override { return size_t{0}; }
  dstore::Status Clear() override { return dstore::Status::OK(); }
  std::string Name() const override { return "fixed-delay"; }

 private:
  void Spin() const {
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay_us_);
    while (std::chrono::steady_clock::now() < end) {
    }
  }
  const int64_t delay_us_;
};

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(Percentile(&v, 50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(&v, 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(&v, 100) == 100, "p100 of 1..100 is 100");
  std::vector<double> one = {7};
  Expect(Percentile(&one, 99) == 7, "p99 of one sample is that sample");
  std::vector<double> none;
  Expect(Percentile(&none, 99) == 0, "p99 of no samples is 0");

  PhaseResult r;
  r.latency_us[0] = std::vector<double>(98, 1.0);
  r.attempted = 100;
  r.failed = 2;
  Expect(std::isinf(r.AllOpPercentile(99)),
         "failed ops count as infinitely slow in the all-op p99");
  Expect(r.AllOpPercentile(98) == 1.0, "all-op p98 with 2% failed is 1");
}

void TestGenerator() {
  LoadSpec load;
  load.keys = 500;
  load.put_share = 0.3;
  load.multiget_share = 0.3;
  OpGenerator a(load, 42, 3), b(load, 42, 3), c(load, 43, 3);
  const auto ops_a = a.Next(3000, 1000);
  Expect(SequenceDigest(ops_a) == SequenceDigest(b.Next(3000, 1000)),
         "same seed gives the same op sequence");
  Expect(SequenceDigest(ops_a) != SequenceDigest(c.Next(3000, 1000)),
         "another seed gives another op sequence");
  int puts = 0, multigets = 0;
  for (const Op& op : ops_a) {
    puts += op.type == OpType::kPut;
    multigets += op.type == OpType::kMultiGet;
  }
  Expect(std::abs(puts / 3000.0 - 0.3) < 0.04 &&
             std::abs(multigets / 3000.0 - 0.3) < 0.04,
         "op mix follows the spec");
  Expect(ops_a[1000].due_ns == 1'000'000'000, "op 1000 at 1000/s is due at 1 s");
  bool one_owner = true;
  for (const Op& op : ops_a) {
    for (int k = 1; k < op.nkeys; ++k) {
      one_owner &= WorkerFor(op.keys[k], 3) == WorkerFor(op.keys[0], 3);
    }
  }
  Expect(one_owner, "a MultiGet's keys all belong to one worker");
}

void TestOracle() {
  const dstore::Bytes value = EncodeValue(7, 3, 1024, 0.5);
  const DecodedValue decoded = DecodeValue(value);
  Expect(decoded.ok && decoded.key == 7 && decoded.version == 3 &&
             value.size() == 1024,
         "value round-trips key and version");
  dstore::Bytes corrupt = value;
  corrupt[500] ^= 1;
  Expect(!DecodeValue(corrupt).ok, "a flipped byte fails the checksum");

  Oracle oracle(10);
  oracle.BeginPut(7, 3);
  oracle.AckPut(7, 3, 1024);
  auto read = [](const dstore::Bytes& v) {
    return dstore::StatusOr<dstore::ValuePtr>(dstore::MakeValue(v));
  };
  Expect(oracle.CheckRead(7, 3, read(value)).empty(), "current value passes");
  Expect(!oracle.CheckRead(7, 4, read(value)).empty(),
         "a version older than the acknowledged one fails");
  Expect(!oracle.CheckRead(6, 0, read(value)).empty(),
         "another key's value fails");
  Expect(!oracle.CheckRead(7, 3, dstore::Status::NotFound("x")).empty(),
         "NotFound after an acknowledged write fails");
  Expect(!oracle.CheckRead(7, 0, read(EncodeValue(7, 9, 64, 0))).empty(),
         "a version never written fails");
}

void TestSelfTime() {
  // root [0,100] > child [10,40] > grandchild [20,30]; child2 [50,90].
  std::vector<Span> spans(4);
  spans[0] = {0, 100, -1, 0, 1, Layer::kAdmit, Call::kGet};
  spans[1] = {10, 40, 0, 0, 1, Layer::kShard, Call::kGet};
  spans[2] = {20, 30, 1, 0, 1, Layer::kLsm, Call::kGet};
  spans[3] = {50, 90, 0, 0, 1, Layer::kShard, Call::kGet};
  const auto self = SelfTimes(spans);
  Expect(self[0] == 30 && self[1] == 20 && self[2] == 10 && self[3] == 40,
         "self time is duration minus same-thread children");
  const SpanRollup rollup = RollUp({spans}, 1);
  Expect(rollup.attributed_self_ns == 70,
         "attributed time is the self time below the outermost span");
  Expect(rollup.On(Layer::kShard, Call::kGet).count == 2,
         "rollup counts spans per layer and call");

  double coverage = 0;
  const std::vector<Layer> layers = {Layer::kAdmit, Layer::kShard,
                                     Layer::kLsm};
  Expect(CheckCoverage(rollup, layers, 100, 0.6, &coverage).empty() &&
             coverage == 0.7,
         "coverage of the probed window passes");
  Expect(!CheckCoverage(rollup, {Layer::kAdmit, Layer::kReplica}, 100, 0.6,
                        &coverage)
              .empty(),
         "a layer without blocking-path spans fails coverage");
  Expect(!CheckCoverage(RollUp({{spans[0]}}, 1), {Layer::kAdmit}, 100, 0.6,
                        &coverage)
              .empty(),
         "the outermost probe alone covers nothing");
  Expect(!CheckCoverage(rollup, layers, 200, 0.6, &coverage).empty(),
         "time outside the probes fails coverage");
}

// With one worker and a 1 ms service time the store saturates at 1000
// ops/s; an SLO of 20 ms is met below that and missed above it, so the
// search must land within a few percent under 1000.
void TestSloSearch() {
  FixedDelayStore store(1000);
  LoadSpec load;
  load.keys = 1000;
  load.put_share = 0;
  OpGenerator generator(load, 1, 1);
  Oracle oracle(load.keys);
  const std::vector<dstore::KeyValueStore*> stores = {&store};
  const double slo_us = 20000;

  PhaseOptions options;
  options.abort_backlog = 4 * 20;  // four SLOs at 1000 ops/s
  // As in the scoreboard's search, a window that misses is run once more,
  // so one stall of a shared host does not decide the test.
  auto meets = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const PhaseResult r = RunPhase(
          stores, &oracle, generator.Next(static_cast<size_t>(rate / 2), rate),
          options);
      if (MeetsSlo(r, slo_us, 0.001)) return true;
    }
    return false;
  };

  PhaseResult half =
      RunPhase(stores, &oracle, generator.Next(500, 500), options);
  std::vector<double> gets = half.latency_us[0];
  const double p50 = Percentile(&gets, 50);
  Expect(p50 >= 1000 && p50 < 1500,
         "p50 at half load is about the 1 ms service time (" +
             std::to_string(p50) + " us)");
  Expect(meets(500), "half load meets the SLO");

  std::vector<std::pair<double, bool>> steps;
  const double found = SearchSloRate(meets, 250, 4000, 1.02, &steps);
  for (const auto& [rate, ok] : steps) {
    std::printf("     step %.1f ops/s %s\n", rate, ok ? "meets" : "misses");
  }
  Expect(found > 900 && found <= 1030,
         "slo search finds the 1000 ops/s capacity (" + std::to_string(found) +
             ")");
}

}  // namespace
}  // namespace scoreboard

int main() {
  scoreboard::TestPercentiles();
  scoreboard::TestGenerator();
  scoreboard::TestOracle();
  scoreboard::TestSelfTime();
  scoreboard::TestSloSearch();
  std::printf("%s: %d failure(s)\n",
              scoreboard::failures == 0 ? "PASS" : "FAIL",
              scoreboard::failures);
  return scoreboard::failures == 0 ? 0 : 1;
}
