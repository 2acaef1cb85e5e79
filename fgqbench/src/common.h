#ifndef FGQBENCH_COMMON_H_
#define FGQBENCH_COMMON_H_

// Shared plumbing of fgq_bench: clocks, order statistics,
// process CPU time, the failure ledger, and the metric sink that becomes
// the final JSON line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace fgqbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// User + system CPU seconds of the whole process (every thread: the
/// generator, the server shard and its worker).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Nearest-rank quantile of `v` (copied, so callers keep their order).
/// 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Counts attempted and failed operations. Every failure (remote error,
/// rejection, transport loss, wrong answer) lands here; the first few are
/// described on stderr so a red run says why.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// An operation that did not complete (error, rejection, lost reply).
  void Fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "fgq-bench: FAILED: %s\n", why.c_str());
  }
  /// An operation that completed with a wrong answer.
  void Wrong(const std::string& why) {
    ++wrong_;
    Fail("wrong answer: " + why);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t wrong() const { return wrong_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

/// One metric of the result line. A sampled metric also carries its
/// samples and the quantile `value` takes of them, so that run.py can pool
/// the samples of several processes and take the same quantile.
struct Metric {
  double value = 0;
  std::string unit;
  std::vector<double> samples;  ///< Empty for a single-figure metric.
  double quantile = 0;
};

/// Metric name -> metric, emitted in insertion-independent order.
struct Metrics {
  std::map<std::string, Metric> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit, {}, 0};
  }
  void SetSampled(const std::string& name, std::vector<double> samples,
                  double quantile, const std::string& unit) {
    const double value = Quantile(samples, quantile);
    values[name] = {value, unit, std::move(samples), quantile};
  }
};

}  // namespace fgqbench

#endif  // FGQBENCH_COMMON_H_
