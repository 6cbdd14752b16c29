#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace lpce::e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double HighestBackedPercentile(size_t n, size_t min_beyond) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly above the pct-th percentile of n samples.
    const double beyond = std::floor(static_cast<double>(n) * (100.0 - pct) / 100.0 + 1e-9);
    if (beyond >= static_cast<double>(min_beyond)) return pct;
  }
  return 0.0;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate, double seconds) {
  std::vector<double> out;
  if (rate <= 0.0) return out;
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    state = MixSeed(state, 0);
    // 53 random bits -> u in (0, 1]; the gap is -ln(u) / rate.
    const double u = (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::pair<std::string, double>> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<size_t>(spans[i].parent)].push_back(i);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      const double lo = std::max(span.start, spans[c].start);
      const double hi = std::min(span.end, spans[c].end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_len = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_len += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_len += cur_hi - cur_lo;
    self[span.name] += std::max(0.0, (span.end - span.start) - union_len);
  }
  return {self.begin(), self.end()};
}

std::string SpansToJsonl(const std::vector<Span>& spans) {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"trace\":%llu,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.trace_id), i, s.parent,
                  s.name.c_str(), s.start * 1e6, s.end * 1e6);
    out += buf;
  }
  return out;
}

}  // namespace lpce::e2e
