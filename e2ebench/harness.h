// Load-generation and measurement helpers of the end-to-end serving
// benchmark, kept free of the engine so harness_test.cc can pin them on
// synthetic inputs: percentiles, the Poisson arrival schedule, the Zipf
// template sampler, the open-loop load generator, span self-time, and the digest.
#ifndef LPCE_E2EBENCH_HARNESS_H_
#define LPCE_E2EBENCH_HARNESS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace lpce::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// The highest of the reported percentiles (99.9, 99, 95, 90, 75, 50) that
/// leaves at least `min_beyond` of `n` samples above it; 0 when even the
/// median does not. A p99 over fewer than 1000 samples would rest on fewer
/// than ten slow samples, so the report names the percentile it can back.
double HighestBackedPercentile(size_t n, size_t min_beyond = 10);

/// Arrival offsets (seconds from the start) of a Poisson process with mean
/// `rate` per second over [0, seconds): exponential gaps drawn from a
/// seed-only generator, so the same seed always yields the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate, double seconds);

/// Zipf(s) over ranks [0, n): rank r is drawn with probability
/// proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  /// `u` uniform in [0, 1).
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// splitmix64: seed derivation for per-thread and per-phase generators.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// FNV-1a 64 over a byte string, chained through `h`.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull);

/// One request of an open-loop run. Times are seconds from the run start.
struct OpenLoopRecord {
  double scheduled = 0.0;
  double sent = 0.0;       // when the generator actually submitted
  double done = 0.0;       // when the result was observed ready
  bool admitted = false;   // false: the submit callback refused it

  /// Client latency as an independent user sees it: from the scheduled
  /// send time, so a generator stall counts against the system.
  double latency() const { return done - scheduled; }
};

/// Drives an open loop: submits request i at schedule[i] (sleeping, then
/// yielding for the last 100 us) and hands every returned future to a pool
/// of `waiters` threads, each blocked on one future at a time, so a request
/// that finishes early is timed when it finishes, not when the requests
/// before it do. `submit(i)` returns nullopt when the system refuses the
/// request; `on_result(i, result)` runs on a waiter thread once per admitted
/// request, before its completion time is final. Returns one record per
/// schedule entry and the count of futures that waited for a free waiter.
template <typename Result>
std::vector<OpenLoopRecord> RunOpenLoop(
    const std::vector<double>& schedule,
    const std::function<std::optional<std::shared_future<Result>>(size_t)>& submit,
    const std::function<void(size_t, const Result&)>& on_result, int waiters,
    uint64_t* waiter_backlog) {
  std::vector<OpenLoopRecord> records(schedule.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::shared_future<Result>>> pending;
  bool closed = false;
  int idle = waiters;
  uint64_t backlog = 0;
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(waiters));
  for (int w = 0; w < waiters; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        std::pair<size_t, std::shared_future<Result>> item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !pending.empty(); });
          if (pending.empty()) return;
          item = std::move(pending.front());
          pending.pop_front();
          --idle;
        }
        item.second.wait();
        records[item.first].done = SecondsBetween(start, Clock::now());
        on_result(item.first, item.second.get());
        std::lock_guard<std::mutex> lock(mu);
        ++idle;
      }
    });
  }

  for (size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
    // Sleep, then yield for the last stretch: sleeping to the due time adds
    // the wake-up delay to the lag, and a longer yield loop takes a core from
    // the served system (p50 rose 3-8% with a 1 ms stretch on 4 cores).
    const auto spin = std::chrono::microseconds(100);
    if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
    while (Clock::now() < due) std::this_thread::yield();
    OpenLoopRecord& record = records[i];
    record.scheduled = schedule[i];
    record.sent = SecondsBetween(start, Clock::now());
    std::optional<std::shared_future<Result>> future = submit(i);
    if (!future.has_value()) {
      record.done = record.sent;
      continue;
    }
    record.admitted = true;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (idle <= static_cast<int>(pending.size())) ++backlog;
      pending.emplace_back(i, std::move(*future));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (auto& t : pool) t.join();
  if (waiter_backlog != nullptr) *waiter_backlog = backlog;
  return records;
}

/// One traced interval. Spans of one request share `trace_id`; `parent` is
/// the index of the enclosing span in the same log (-1 for a root).
struct Span {
  uint64_t trace_id = 0;
  int parent = -1;
  std::string name;
  double start = 0.0;  // seconds from the run start
  double end = 0.0;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (overlapping children counted once).
std::vector<std::pair<std::string, double>> SelfTimes(const std::vector<Span>& spans);

/// One JSON object per span, one per line.
std::string SpansToJsonl(const std::vector<Span>& spans);

}  // namespace lpce::e2e

#endif  // LPCE_E2EBENCH_HARNESS_H_
