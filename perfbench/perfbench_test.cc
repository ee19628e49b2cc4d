// Tests of the benchmark's own code: input generators, the percentile
// rule, the order-independent digest and the residual arithmetic.

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bench_core.h"
#include "workloads.h"

namespace perfbench {
namespace {

uint64_t InputsFingerprint(const WorkloadInputs& in) {
  uint64_t h = HashBytes(nullptr, 0);
  for (const m2g::serve::RtpRequest& r : in.requests) {
    h = HashBytes(&r.courier.id, sizeof(r.courier.id), h);
    h = HashBytes(&r.courier_pos, sizeof(r.courier_pos), h);
    h = HashBytes(&r.query_time_min, sizeof(r.query_time_min), h);
    for (const m2g::synth::Order& o : r.pending) {
      h = HashBytes(&o.id, sizeof(o.id), h);
      h = HashBytes(&o.pos, sizeof(o.pos), h);
      h = HashBytes(&o.deadline_min, sizeof(o.deadline_min), h);
    }
  }
  for (const m2g::synth::Sample& s : in.train) {
    h = HashBytes(s.route_label.data(), s.route_label.size() * sizeof(int), h);
  }
  return h;
}

class GeneratorTest : public ::testing::TestWithParam<Kind> {};

TEST_P(GeneratorTest, DeterministicPerSeedAndChangesWithSeed) {
  const uint64_t a = InputsFingerprint(MakeInputs(GetParam(), 3));
  const uint64_t b = InputsFingerprint(MakeInputs(GetParam(), 3));
  const uint64_t c = InputsFingerprint(MakeInputs(GetParam(), 4));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_P(GeneratorTest, ShapesMatchTheWorkloadDefinition) {
  const WorkloadInputs in = MakeInputs(GetParam(), 5);
  ASSERT_FALSE(in.requests.empty());
  EXPECT_EQ(static_cast<int>(in.train.size()), kTrainSamples);
  for (const m2g::synth::Sample& s : in.train) {
    EXPECT_EQ(s.route_label.size(), s.locations.size());
    EXPECT_EQ(s.aoi_route_label.size(), s.aoi_node_ids.size());
  }
  int lo = 1 << 30, hi = 0;
  double total = 0;
  for (const m2g::serve::RtpRequest& r : in.requests) {
    const int n = static_cast<int>(r.pending.size());
    lo = std::min(lo, n);
    hi = std::max(hi, n);
    total += n;
  }
  const double mean = total / in.requests.size();
  switch (GetParam()) {
    case Kind::kCityReplay:
    case Kind::kTrainEpoch:
      EXPECT_GE(lo, 3);
      EXPECT_LE(hi, 20);
      EXPECT_GT(mean, 6.0);
      EXPECT_LT(mean, 9.0);
      break;
    case Kind::kDenseBacklog:
      EXPECT_EQ(static_cast<int>(in.requests.size()), kDenseRequests);
      EXPECT_GE(lo, kDenseMinNodes);
      EXPECT_LE(hi, kDenseMaxNodes);
      break;
    case Kind::kCourierStream:
      EXPECT_EQ(static_cast<int>(in.requests.size()),
                kStreamCouriers * kStreamSteps);
      EXPECT_GE(lo, kStreamMinNodes);
      EXPECT_LE(hi, kStreamMaxNodes);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(All, GeneratorTest,
                         ::testing::Values(Kind::kCityReplay,
                                           Kind::kDenseBacklog,
                                           Kind::kCourierStream,
                                           Kind::kTrainEpoch));

TEST(CourierStreamTest, ConsecutiveQueriesDifferByOneOrder) {
  const WorkloadInputs in = MakeInputs(Kind::kCourierStream, 8);
  for (int c = 0; c < kStreamCouriers; ++c) {
    for (int s = 1; s < kStreamSteps; ++s) {
      const auto& prev = in.requests[(s - 1) * kStreamCouriers + c];
      const auto& cur = in.requests[s * kStreamCouriers + c];
      ASSERT_EQ(prev.courier.id, cur.courier.id);
      const int dn = static_cast<int>(cur.pending.size()) -
                     static_cast<int>(prev.pending.size());
      ASSERT_TRUE(dn == 1 || dn == -1);
      if (dn == 1) {
        // Arrival: clock and position unchanged, new id above all others.
        EXPECT_EQ(cur.query_time_min, prev.query_time_min);
        for (const auto& o : prev.pending) {
          EXPECT_LT(o.id, cur.pending.back().id);
        }
      } else {
        EXPECT_GT(cur.query_time_min, prev.query_time_min);
      }
    }
  }
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(TailSupported(999, 99));
  EXPECT_TRUE(TailSupported(1000, 99));
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(MinSamplesFor(99), 1000);
  EXPECT_EQ(MinSamplesFor(95), 200);
  EXPECT_EQ(MinSamplesFor(90), 100);
  EXPECT_EQ(MinSamplesFor(50), 20);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  std::shuffle(v.begin(), v.end(), std::mt19937(1));
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileTest, WindowedMedianIgnoresOneBadWindow) {
  std::vector<double> v(5000, 1.0);
  // One window's tail is hit by a stall; the other four are clean.
  for (int i = 0; i < 60; ++i) v[i] = 100.0;
  EXPECT_EQ(WindowedPercentile(v, 99, 5), 1.0);
  EXPECT_EQ(Percentile(v, 99), 100.0);
}

TEST(DigestTest, IndependentOfOrderButNotOfContent) {
  std::vector<uint64_t> items = {5, 9, 9, 1, 77, 1234567};
  OrderFreeDigest a;
  for (uint64_t x : items) a.Add(x);
  std::reverse(items.begin(), items.end());
  OrderFreeDigest b;
  for (uint64_t x : items) b.Add(x);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hex(), b.Hex());

  OrderFreeDigest dropped;
  for (size_t i = 1; i < items.size(); ++i) dropped.Add(items[i]);
  EXPECT_FALSE(a == dropped);
  OrderFreeDigest changed;
  for (uint64_t x : items) changed.Add(x == 77 ? 78 : x);
  EXPECT_FALSE(a == changed);
  // A repeated pair must not cancel out.
  OrderFreeDigest twice;
  twice.Add(9);
  twice.Add(9);
  OrderFreeDigest none;
  none.Add(3);
  none.Add(3);
  EXPECT_FALSE(twice == none);

  OrderFreeDigest merged = a;
  merged.Merge(b);
  OrderFreeDigest doubled;
  for (int k = 0; k < 2; ++k) {
    for (uint64_t x : items) doubled.Add(x);
  }
  EXPECT_EQ(merged, doubled);
}

TEST(ResidualTest, ParentMinusChildren) {
  EXPECT_DOUBLE_EQ(Residual(10.0, {2.5, 3.0, 4.0}), 0.5);
  EXPECT_DOUBLE_EQ(Residual(1.0, {}), 1.0);
  // Overlapping children give a negative residual, not a clamped zero.
  EXPECT_DOUBLE_EQ(Residual(1.0, {0.75, 0.5}), -0.25);
}

TEST(PoissonTest, DeterministicRateAndSeedSensitive) {
  const std::vector<double> a = PoissonOffsets(11, 1000, 5);
  EXPECT_EQ(a, PoissonOffsets(11, 1000, 5));
  EXPECT_NE(a, PoissonOffsets(12, 1000, 5));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NEAR(static_cast<double>(a.size()), 5000, 300);
  EXPECT_LT(a.back(), 5.0);
}

TEST(HashTest, PredictionBytesMatter) {
  m2g::core::RtpPrediction p;
  p.location_route = {0, 2, 1};
  p.location_times_min = {1.0, 2.0, 3.0};
  m2g::core::RtpPrediction q = p;
  EXPECT_EQ(HashPrediction(p), HashPrediction(q));
  q.location_times_min[1] = std::nextafter(2.0, 3.0);
  EXPECT_NE(HashPrediction(p), HashPrediction(q));
  q = p;
  q.location_route = {0, 1, 2};
  EXPECT_NE(HashPrediction(p), HashPrediction(q));
}

TEST(FlopsTest, EncodeFlopsGrowQuadratically) {
  const m2g::core::ModelConfig config;
  const double f20 = EncodeFlops(config, 20, 3);
  const double f40 = EncodeFlops(config, 40, 3);
  EXPECT_GT(f40 / f20, 3.5);
  EXPECT_LT(f40 / f20, 4.0);
  EXPECT_GT(EncodeBytes(config, 40, 3), EncodeBytes(config, 20, 3));
}

}  // namespace
}  // namespace perfbench
