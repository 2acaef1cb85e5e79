#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "fgq/util/bigint.h"
#include "fgq/util/cancel.h"
#include "fgq/util/delay_recorder.h"
#include "fgq/util/hash.h"
#include "fgq/util/metrics.h"
#include "fgq/util/random.h"
#include "fgq/util/status.h"

namespace fgq {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation 'R'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: relation 'R'");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnsupported, StatusCode::kParseError,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good = Half(8);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 4);
  Result<int> bad = Half(7);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ValueOr(-1), -1);
  EXPECT_EQ(good.ValueOr(-1), 4);
}

Result<int> Quarter(int x) {
  FGQ_ASSIGN_OR_RETURN(int h, Half(x));
  FGQ_ASSIGN_OR_RETURN(int r, Half(h));
  return r;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(12), 3);
  EXPECT_FALSE(Quarter(6).ok());
}

// ---- BigInt -----------------------------------------------------------------

TEST(BigInt, SmallArithmetic) {
  EXPECT_EQ((BigInt(2) + BigInt(3)).ToString(), "5");
  EXPECT_EQ((BigInt(2) - BigInt(3)).ToString(), "-1");
  EXPECT_EQ((BigInt(-4) * BigInt(-5)).ToString(), "20");
  EXPECT_EQ((BigInt(-4) * BigInt(5)).ToString(), "-20");
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_TRUE((BigInt(7) - BigInt(7)).is_zero());
}

TEST(BigInt, Int64Extremes) {
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MAX).ToInt64(), INT64_MAX);
}

TEST(BigInt, FromUint64CoversTheFullUnsignedRange) {
  EXPECT_TRUE(BigInt::FromUint64(0).is_zero());
  EXPECT_EQ(BigInt::FromUint64(123), BigInt(123));
  EXPECT_EQ(BigInt::FromUint64(uint64_t{INT64_MAX}), BigInt(INT64_MAX));
  // Above 2^63 - 1, routing through the int64_t constructor would wrap
  // negative — this is how answer counts used to truncate in the serving
  // layer.
  EXPECT_EQ(BigInt::FromUint64(uint64_t{1} << 63).ToString(),
            "9223372036854775808");
  EXPECT_EQ(BigInt::FromUint64(UINT64_MAX).ToString(),
            "18446744073709551615");
  EXPECT_EQ(BigInt::FromUint64(UINT64_MAX) + BigInt(1),
            BigInt::Pow2(64));
}

TEST(BigInt, Pow2) {
  EXPECT_EQ(BigInt::Pow2(0).ToString(), "1");
  EXPECT_EQ(BigInt::Pow2(10).ToString(), "1024");
  EXPECT_EQ(BigInt::Pow2(64).ToString(), "18446744073709551616");
  EXPECT_EQ(BigInt::Pow2(100).ToString(), "1267650600228229401496703205376");
}

TEST(BigInt, PowMatchesRepeatedMultiplication) {
  BigInt b(7);
  BigInt acc(1);
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(BigInt::Pow(b, static_cast<uint64_t>(e)).ToString(),
              acc.ToString());
    acc *= b;
  }
}

TEST(BigInt, FromStringRoundTrip) {
  for (const char* s :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-999999999999999999999999999999999"}) {
    EXPECT_EQ(BigInt::FromString(s).ToString(), s);
  }
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt::Pow2(64), BigInt::Pow2(65));
  EXPECT_GE(BigInt(5), BigInt(5));
}

TEST(BigInt, DivSmall) {
  EXPECT_EQ(BigInt(100).DivSmall(7).ToString(), "14");
  EXPECT_EQ(BigInt::Pow2(100).DivSmall(1).ToString(),
            BigInt::Pow2(100).ToString());
  // 2^100 / 2^20 == 2^80.
  BigInt v = BigInt::Pow2(100);
  for (int i = 0; i < 2; ++i) v = v.DivSmall(1024);
  EXPECT_EQ(v.ToString(), BigInt::Pow2(80).ToString());
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(1000).ToDouble(), 1000.0);
  EXPECT_NEAR(BigInt::Pow2(70).ToDouble(), std::ldexp(1.0, 70), 1e3);
  EXPECT_LT(BigInt(-12).ToDouble(), 0);
}

TEST(BigInt, RandomizedRingAxioms) {
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    int64_t a = static_cast<int64_t>(rng.Next() >> 20) - (1LL << 42);
    int64_t b = static_cast<int64_t>(rng.Next() >> 20) - (1LL << 42);
    int64_t c = static_cast<int64_t>(rng.Next() >> 40);
    BigInt A(a), B(b), C(c);
    EXPECT_EQ(((A + B) * C).ToString(), (A * C + B * C).ToString());
    EXPECT_EQ((A + B).ToString(), (B + A).ToString());
    EXPECT_EQ((A - B).ToString(), (-(B - A)).ToString());
  }
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values hit.
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---- Hash -------------------------------------------------------------------

TEST(Hash, VecHashDistinguishesOrderAndContent) {
  VecHash h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_NE(h({1}), h({1, 0}));
  EXPECT_EQ(h({5, 6, 7}), h({5, 6, 7}));
}

TEST(Hash, Mix64Avalanches) {
  // Consecutive inputs should differ in many bits.
  int total_diff = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    total_diff += __builtin_popcountll(Mix64(i) ^ Mix64(i + 1));
  }
  EXPECT_GT(total_diff / 64, 20);
}

// ---- DelayRecorder ----------------------------------------------------------

TEST(DelayRecorder, CountsAndMeans) {
  DelayRecorder rec;
  rec.StartEnumeration();
  for (int i = 0; i < 10; ++i) rec.RecordOutput();
  EXPECT_EQ(rec.count(), 10);
  EXPECT_GE(rec.max_delay_ns(), 0);
  EXPECT_GE(rec.mean_delay_ns(), 0.0);
  EXPECT_LE(rec.mean_delay_ns(), static_cast<double>(rec.max_delay_ns()));
}

TEST(DelayRecorder, PercentilesAreOrderedAndBounded) {
  DelayRecorder rec;
  rec.StartEnumeration();
  for (int i = 0; i < 200; ++i) rec.RecordOutput();
  EXPECT_LE(rec.p50_delay_ns(), rec.p95_delay_ns());
  EXPECT_LE(rec.p95_delay_ns(), rec.p99_delay_ns());
  EXPECT_LE(rec.p99_delay_ns(), rec.max_delay_ns());
  EXPECT_EQ(rec.quantile_delay_ns(1.0), rec.max_delay_ns());
}

TEST(DelayRecorder, EmptyRecorderReportsZero) {
  DelayRecorder rec;
  rec.StartEnumeration();
  EXPECT_EQ(rec.count(), 0);
  EXPECT_EQ(rec.p50_delay_ns(), 0);
  EXPECT_EQ(rec.p99_delay_ns(), 0);
}

// ---- CancelToken ------------------------------------------------------------

TEST(CancelToken, InertTokenNeverTrips) {
  CancelToken t;
  EXPECT_FALSE(t.cancellable());
  EXPECT_FALSE(t.cancelled());
  t.Cancel();  // No-op.
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(t.Check().ok());
}

TEST(CancelToken, ExplicitCancelLatchesAcrossCopies) {
  CancelToken t = CancelToken::Cancellable();
  CancelToken copy = t;
  EXPECT_FALSE(copy.cancelled());
  t.Cancel();
  EXPECT_TRUE(copy.cancelled());
  Status st = copy.Check("unit test");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("during unit test"), std::string::npos);
}

TEST(CancelToken, ExpiredDeadlineTripsOnFirstCheck) {
  // A deadline in the past must trip immediately — the amortized clock
  // stride always reads the clock on the first poll.
  CancelToken t = CancelToken::WithTimeout(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.Check("seed").code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelToken, FutureDeadlineDoesNotTrip) {
  CancelToken t = CancelToken::WithTimeout(std::chrono::hours(24));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, SameStateAsIdentifiesCopies) {
  CancelToken a = CancelToken::Cancellable();
  CancelToken b = a;
  CancelToken c = CancelToken::Cancellable();
  EXPECT_TRUE(a.SameStateAs(b));
  EXPECT_FALSE(a.SameStateAs(c));
  EXPECT_FALSE(CancelToken().SameStateAs(CancelToken()));
}

// ---- Metrics ----------------------------------------------------------------

TEST(Metrics, CounterIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Metrics, HistogramQuantilesOnUniformData) {
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.Observe(v);
  EXPECT_EQ(h.TotalCount(), 100u);
  EXPECT_NEAR(h.Mean(), 50.5, 0.01);
  EXPECT_NEAR(h.Quantile(0.5), 50, 10.01);
  EXPECT_NEAR(h.Quantile(0.95), 95, 10.01);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
}

TEST(Metrics, HistogramOverflowReportsLastBound) {
  Histogram h({1, 2});
  h.Observe(1000);
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(h.Quantile(0.99), 2.0);  // Clamped to the last finite bound.
}

TEST(Metrics, ExponentialBounds) {
  std::vector<double> b = Histogram::ExponentialBounds(1.0, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[4], 16.0);
}

TEST(Metrics, LatencyBoundsResolveSubMicrosecondObservations) {
  // Regression: the serving histograms used ExponentialBounds(1.0, ...),
  // whose first bucket is [0, 1us] — every sub-microsecond phase (a plan
  // cache hit costs ~38ns) interpolated to ~0.5us, a 13x overstatement.
  // LatencyBounds starts at 1ns so the same observation lands in a bucket
  // narrow enough to read back at the right order of magnitude.
  Histogram coarse(Histogram::ExponentialBounds(1.0, 2.0, 34));
  Histogram fine(Histogram::LatencyBounds());
  for (int i = 0; i < 100; ++i) {
    coarse.Observe(0.038);  // 38ns, in microseconds
    fine.Observe(0.038);
  }
  EXPECT_GT(coarse.Quantile(0.5), 0.25);  // The bug: reads as ~0.5us.
  EXPECT_LT(fine.Quantile(0.5), 0.064);   // Containing bucket (0.032, 0.064].
  EXPECT_GT(fine.Quantile(0.5), 0.032);
  // The top of the range still covers multi-second outliers.
  double top = Histogram::LatencyBounds().back();
  EXPECT_GE(top, 4e6);  // >= ~4s in microseconds.
}

TEST(Metrics, RegistryStableHandlesAndTextDump) {
  MetricsRegistry reg;
  Counter& c1 = reg.GetCounter("requests");
  Counter& c2 = reg.GetCounter("requests");
  EXPECT_EQ(&c1, &c2);
  c1.Increment(3);
  reg.GetHistogram("latency", {1, 10, 100}).Observe(5);
  std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("counter requests 3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram latency count=1"), std::string::npos)
      << dump;
}

}  // namespace
}  // namespace fgq
