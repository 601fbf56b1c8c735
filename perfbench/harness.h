// Timing arithmetic of the end-to-end benchmark: the calibration loop,
// calibrated unit series, medians/quantiles and the tail-percentile rule.
//
// Nothing here calls into the taxorec library, so a change to the library
// cannot change what the calibration loop measures (README.md, "Units and
// calibration").
#ifndef TAXOREC_PERFBENCH_HARNESS_H_
#define TAXOREC_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linearly interpolated q-quantile (q in [0, 1]) of `v`: the value at
/// position q·(n−1) of the sorted samples. Returns 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Samples strictly above the q-quantile's rank in a sample of n: the
/// choosing-metrics rule reports a tail percentile only when this is >= 10
/// (so p95 needs n >= 200).
inline size_t SamplesBeyond(size_t n, double q) {
  const double at = std::ceil(q * static_cast<double>(n) - 1e-9);
  return at >= static_cast<double>(n) ? 0 : n - static_cast<size_t>(at);
}

/// True when the q-quantile of n samples may be reported.
inline bool TailReportable(size_t n, double q, size_t min_beyond = 10) {
  return SamplesBeyond(n, q) >= min_beyond;
}

/// The q-quantile of a long latency series, robust to a slow stretch of the
/// run: the series is cut into consecutive segments of at least
/// `min_segment` samples (as many as fit) and the median of the segments'
/// q-quantiles is reported. With min_segment = 200 every segment's p95 has
/// ten samples beyond it.
inline double SegmentedQuantile(const std::vector<double>& v, double q,
                                size_t min_segment) {
  const size_t segments = std::max<size_t>(1, v.size() / min_segment);
  std::vector<double> per_segment;
  for (size_t s = 0; s < segments; ++s) {
    const size_t lo = s * v.size() / segments;
    const size_t hi = (s + 1) * v.size() / segments;
    per_segment.push_back(
        Quantile(std::vector<double>(v.begin() + lo, v.begin() + hi), q));
  }
  return Median(per_segment);
}

/// A unit time expressed in reference-machine time: the unit took
/// `unit_ms` while the calibration loop took `calib_ms`; on the reference
/// machine the loop takes `ref_calib_ms`.
inline double Calibrate(double unit_ms, double calib_ms, double ref_calib_ms) {
  return unit_ms * (ref_calib_ms / calib_ms);
}

/// Reference time of one calibration loop, in ms: the median over the
/// tuning runs on the 4-vCPU x86-64 VM the bounds were set on, committed so
/// calibrated times from different runs share one scale.
inline constexpr double kRefCalibMs = 2.6;

/// Fixed transcendental + memory workload that stands in for "how fast is
/// this machine right now", with the history of its times. The compute half
/// is a chain of acosh/log1p/exp (the operations of a Lorentz distance); the
/// memory half sweeps a buffer larger than L2 one cache line at a time.
class Calibrator {
 public:
  static constexpr int kComputeIters = 60000;
  static constexpr size_t kBufferDoubles = (4u << 20) / sizeof(double);
  static constexpr int kSweeps = 3;

  Calibrator() : buf_(kBufferDoubles, 1.0) {
    Run();  // first touch of the buffer
  }

  /// One calibration loop; returns its wall time in ms.
  double Run() {
    const auto t0 = Clock::now();
    double acc = 0.0;
    double x = 1.5 + 1e-9 * sink_;
    for (int i = 0; i < kComputeIters; ++i) {
      acc += std::acosh(x) + std::log1p(x) * std::exp(-x);
      x = 1.0 + std::fmod(x * 1.6180339887, 3.0);
    }
    double sum = 0.0;
    double* p = buf_.data();
    for (int s = 0; s < kSweeps; ++s) {
      for (size_t i = 0; i < buf_.size(); i += 8) {
        p[i] = p[i] * 0.5 + 0.5;
        sum += p[i];
      }
    }
    sink_ = acc + sum;
    const double ms = MsSince(t0);
    samples_ms_.push_back(ms);
    return ms;
  }

  /// Every loop time measured so far (ms).
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  std::vector<double> buf_;
  double sink_ = 0.0;  // carries the result so the loop is not elided
  std::vector<double> samples_ms_;
};

/// Raw and calibrated times of one kind of unit.
struct Series {
  std::vector<double> raw_ms;
  std::vector<double> cal_ms;

  void Add(double raw, double calib_ms) {
    raw_ms.push_back(raw);
    cal_ms.push_back(Calibrate(raw, calib_ms, kRefCalibMs));
  }
  size_t size() const { return raw_ms.size(); }
  double raw_median() const { return Median(raw_ms); }
  double cal_median() const { return Median(cal_ms); }
};

/// Times fn() as one unit between two calibration loops and records it in
/// `series` against the mean of the two loop times. Returns the raw ms.
template <typename Fn>
double TimeUnit(Calibrator* calib, Series* series, Fn&& fn) {
  const double before = calib->Run();
  const auto t0 = Clock::now();
  fn();
  const double raw = MsSince(t0);
  const double after = calib->Run();
  series->Add(raw, 0.5 * (before + after));
  return raw;
}

}  // namespace perfbench

#endif  // TAXOREC_PERFBENCH_HARNESS_H_
