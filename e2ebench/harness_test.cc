// Self-test of the benchmark harness: the measurement helpers must be right
// before any number they produce means anything. Exits non-zero on failure.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "card/histogram_estimator.h"
#include "engine/server.h"
#include "harness.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::e2e {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                     \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(11, 1000.0, 40.0);
  const std::vector<double> b = PoissonSchedule(11, 1000.0, 40.0);
  const std::vector<double> c = PoissonSchedule(12, 1000.0, 40.0);
  EXPECT(a == b);  // deterministic per seed
  EXPECT(a != c);
  // 40000 expected arrivals: the count's standard deviation is 200 (0.5%).
  const double rate = static_cast<double>(a.size()) / 40.0;
  EXPECT(std::abs(rate / 1000.0 - 1.0) < 0.02);
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] >= a[i - 1];
  EXPECT(sorted);
  EXPECT(!a.empty() && a.front() >= 0.0 && a.back() < 40.0);
  // Exponential gaps: the share of gaps above the mean is e^-1.
  size_t long_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) long_gaps += (a[i] - a[i - 1]) > 1e-3;
  EXPECT(std::abs(static_cast<double>(long_gaps) / static_cast<double>(a.size()) -
                  std::exp(-1.0)) < 0.02);
}

void TestPercentiles() {
  EXPECT(HighestBackedPercentile(10000) == 99.9);
  EXPECT(HighestBackedPercentile(1000) == 99.0);
  EXPECT(HighestBackedPercentile(999) == 95.0);
  EXPECT(HighestBackedPercentile(200) == 95.0);
  EXPECT(HighestBackedPercentile(100) == 90.0);
  EXPECT(HighestBackedPercentile(20) == 50.0);
  EXPECT(HighestBackedPercentile(19) == 0.0);
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  EXPECT(Quantile(v, 0.5) == 51.0);
  EXPECT(Quantile(v, 0.99) == 100.0);
  EXPECT(Quantile({}, 0.5) == 0.0);
}

void TestZipf() {
  ZipfSampler zipf(100, 1.0);
  EXPECT(zipf.Sample(0.0) == 0);
  EXPECT(zipf.Sample(0.999999) == 99);
  // P(rank 0) = 1 / H_100 = 0.1928.
  EXPECT(zipf.Sample(0.19) == 0);
  EXPECT(zipf.Sample(0.20) == 1);
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      {1, -1, "root", 0.0, 10.0},
      {1, 0, "a", 1.0, 3.0},
      {1, 0, "a", 2.0, 5.0},  // overlaps the first child: counted once
      {1, 0, "b", 7.0, 8.0},
  };
  for (const auto& [name, self] : SelfTimes(spans)) {
    if (name == "root") EXPECT(std::abs(self - 5.0) < 1e-12);
    if (name == "a") EXPECT(std::abs(self - 5.0) < 1e-12);
    if (name == "b") EXPECT(std::abs(self - 1.0) < 1e-12);
  }
}

/// A request that finishes early is timed when it finishes, even while an
/// earlier one is still running; latency counts from the scheduled time, so
/// a generator stall shows up in the requests it delayed.
void TestOpenLoopTiming() {
  using namespace std::chrono;
  const std::vector<double> schedule = {0.0, 0.001, 0.002, 0.003};
  std::vector<std::promise<int>> promises(schedule.size());
  std::vector<std::thread> finishers;
  const std::function<std::optional<std::shared_future<int>>(size_t)> submit =
      [&](size_t i) -> std::optional<std::shared_future<int>> {
    std::shared_future<int> f = promises[i].get_future().share();
    const auto delay = i == 0 ? milliseconds(300) : milliseconds(2);
    finishers.emplace_back([&promises, i, delay] {
      std::this_thread::sleep_for(delay);
      promises[i].set_value(static_cast<int>(i));
    });
    if (i == 1) std::this_thread::sleep_for(milliseconds(40));  // generator stall
    return f;
  };
  std::vector<int> results(schedule.size(), -1);
  const std::function<void(size_t, const int&)> on_result =
      [&](size_t i, const int& r) { results[i] = r; };
  uint64_t backlog = 0;
  const std::vector<OpenLoopRecord> rec =
      RunOpenLoop<int>(schedule, submit, on_result, 4, &backlog);
  for (auto& t : finishers) t.join();
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT(results[i] == static_cast<int>(i));
    EXPECT(rec[i].admitted);
  }
  EXPECT(rec[0].latency() >= 0.3);
  // Request 1 took ~2 ms; waiting in submission order would have shown ~300.
  EXPECT(rec[1].latency() < 0.2);
  // Requests 2 and 3 were sent ~40 ms late; their latency includes that.
  EXPECT(rec[2].sent - rec[2].scheduled > 0.03);
  EXPECT(rec[2].latency() > 0.03 && rec[2].latency() < 0.2);
  EXPECT(rec[3].latency() > 0.03 && rec[3].latency() < 0.2);
  EXPECT(backlog == 0);
}

/// Server-side T_end is timed inside the interval the client observes.
void TestTEndWithinClientLatency() {
  db::SynthImdbOptions db_opts;
  db_opts.scale = 0.01;
  auto database = db::BuildSynthImdb(db_opts);
  stats::DatabaseStats db_stats;
  db_stats.Build(*database);
  wk::GeneratorOptions gen;
  gen.seed = 5;
  std::vector<wk::LabeledQuery> queries =
      wk::QueryGenerator(database.get(), gen).GenerateLabeled(60, 1, 5);
  eng::ServerOptions options;
  options.num_workers = 2;
  options.plan_cache_capacity = 1024;
  eng::EngineServer server(
      database.get(), opt::CostModel{},
      [&](int) {
        eng::EngineServer::Session session;
        session.initial = std::make_unique<card::HistogramEstimator>(&db_stats);
        return session;
      },
      options);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : queries) {
      const Clock::time_point t0 = Clock::now();
      auto admitted = server.Submit(q.query);
      EXPECT(admitted.ok());
      const eng::RunStats stats = admitted.value().get();
      const double latency = SecondsBetween(t0, Clock::now());
      EXPECT(stats.TotalSeconds() <= latency + 1e-6);
      EXPECT(stats.result_count == q.FinalCard());
    }
  }
}

}  // namespace
}  // namespace lpce::e2e

int main() {
  using namespace lpce::e2e;
  TestPoissonSchedule();
  TestPercentiles();
  TestZipf();
  TestSelfTimes();
  TestOpenLoopTiming();
  TestTEndWithinClientLatency();
  if (g_failures > 0) {
    std::fprintf(stderr, "e2e_harness_test: %d failures\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "e2e_harness_test: ok\n");
  return 0;
}
