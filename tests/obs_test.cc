// Telemetry layer: counters, gauges, histogram bucket math, quantile
// interpolation, cross-thread merge exactness, thread-owned request
// trace trees carried by wide events, the admin endpoint and the
// exporters. The concurrent tests double as the TSan surface for the
// lock-free recording paths.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/admin_server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/wide_event.h"

namespace m2g::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_EQ(g.Value(), 4.0);
  g.Add(-4.0);
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddSumsExactly) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      // Integer-valued deltas: exact in double for any add order.
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(g.Value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(HistogramTest, BucketBoundariesUseLeSemantics) {
  // Bucket i counts values <= bounds[i] (Prometheus `le`), the last
  // slot is the overflow bucket.
  Histogram h({1.0, 2.0, 5.0});
  h.Record(1.0);  // exactly on a bound -> that bucket
  h.Record(1.5);
  h.Record(2.0);
  h.Record(5.0);
  h.Record(7.0);  // above every bound -> overflow
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 16.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h({1.0, 2.0});
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0, 30.0});
  h.Record(5.0);
  h.Record(15.0);
  h.Record(25.0);
  h.Record(35.0);
  const HistogramSnapshot s = h.Snapshot();
  // The extreme quantiles clamp to the observed range, not the bucket
  // bounds: q=0 interpolates up from min, q=1 caps at max.
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 35.0);
  // Rank 2 of 4 lands at the top of the second bucket [10, 20].
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 20.0);
  // Monotone in q.
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, SingleValueQuantilesCollapse) {
  Histogram h(DefaultLatencyBucketsMs());
  h.Record(3.25);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 3.25);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
}

TEST(HistogramTest, CrossThreadMergeEqualsSerialReference) {
  // Integer-valued samples so the sharded sum is exact regardless of
  // accumulation order.
  const std::vector<double> bounds = {4.0, 16.0, 64.0, 256.0};
  Histogram sharded(bounds);
  Histogram serial(bounds);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sharded, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sharded.Record(static_cast<double>((t * 37 + i * 13) % 300));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      serial.Record(static_cast<double>((t * 37 + i * 13) % 300));
    }
  }
  const HistogramSnapshot a = sharded.Snapshot();
  const HistogramSnapshot b = serial.Snapshot();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

TEST(HistogramTest, SnapshotWhileRecordingIsConsistent) {
  // TSan surface: snapshots race with records by design; every snapshot
  // must still be internally sane (count covers the bucket total).
  Histogram h(DefaultLatencyBucketsMs());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop] {
      double v = 0.001;
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(v);
        v = v < 100 ? v * 1.7 : 0.001;
      }
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot s = h.Snapshot();
    // Mid-flight snapshots can catch a writer between its bucket and
    // count updates, so the only invariant is monotonicity (plus "no
    // data race", which TSan checks).
    EXPECT_GE(s.count, last_count);
    last_count = s.count;
    s.Quantile(0.99);  // must not crash on a racing snapshot
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  const HistogramSnapshot s = h.Snapshot();
  uint64_t bucket_total = 0;
  for (uint64_t c : s.counts) bucket_total += c;
  EXPECT_EQ(s.count, bucket_total);
}

TEST(RegistryTest, SameNameReturnsSameObject) {
  MetricsRegistry registry;
  EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
  EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.latency_histogram("h"),
            &registry.latency_histogram("h"));
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("z.count").Increment(2);
  registry.counter("a.count").Increment();
  registry.gauge("mid.depth").Set(7);
  registry.latency_histogram("lat.ms").Record(1.0);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[1].first, "z.count");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_NE(snap.FindHistogram("lat.ms"), nullptr);
  EXPECT_EQ(snap.FindHistogram("nope"), nullptr);
}

TEST(RegistryTest, CallbackGaugeIsPulledAtSnapshotTime) {
  MetricsRegistry registry;
  double backing = 1.0;
  registry.AddCallbackGauge("pulled", [&backing] { return backing; });
  EXPECT_EQ(registry.Snapshot().gauges[0].second, 1.0);
  backing = 9.0;
  EXPECT_EQ(registry.Snapshot().gauges[0].second, 9.0);
}

/// A little fixture registry shared by the two exporter golden tests.
MetricsSnapshot GoldenSnapshot() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    r->counter("requests").Increment(3);
    r->gauge("depth").Set(2.5);
    Histogram& h = r->histogram("lat.ms", {1.0, 2.0});
    h.Record(0.5);
    h.Record(1.5);
    h.Record(10.0);
    return r;
  }();
  return registry->Snapshot();
}

TEST(ExportTest, PrometheusGoldenText) {
  const std::string expected =
      "# TYPE m2g_requests_total counter\n"
      "m2g_requests_total 3\n"
      "# TYPE m2g_depth gauge\n"
      "m2g_depth 2.5\n"
      "# TYPE m2g_lat_ms histogram\n"
      "m2g_lat_ms_bucket{le=\"1\"} 1\n"
      "m2g_lat_ms_bucket{le=\"2\"} 2\n"
      "m2g_lat_ms_bucket{le=\"+Inf\"} 3\n"
      "m2g_lat_ms_sum 12\n"
      "m2g_lat_ms_count 3\n";
  EXPECT_EQ(ExportPrometheus(GoldenSnapshot()), expected);
}

TEST(ExportTest, JsonGoldenText) {
  const std::string json = ExportJson(GoldenSnapshot());
  EXPECT_NE(json.find("\"counters\": {\n    \"requests\": 3\n  }"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"depth\": 2.5"), std::string::npos) << json;
  // p50: rank 1.5 of 3 lands half-way through the (1, 2] bucket.
  EXPECT_NE(json.find("\"lat.ms\": {\"count\": 3, \"sum\": 12, "
                      "\"min\": 0.5, \"max\": 10, \"mean\": 4, "
                      "\"p50\": 1.5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"count\": 1}"),
            std::string::npos)
      << json;
}

TEST(ExportTest, WriteMetricsFilePicksFormatBySuffix) {
  // WriteMetricsFile snapshots the *global* registry — give it content.
  MetricsRegistry::Global().counter("obs_test.writes").Increment();
  const std::string prom_path = "obs_test_metrics.prom";
  const std::string json_path = "obs_test_metrics.json";
  ASSERT_TRUE(WriteMetricsFile(prom_path));
  ASSERT_TRUE(WriteMetricsFile(json_path));
  auto read = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
    std::remove(path.c_str());
    return out;
  };
  EXPECT_EQ(read(json_path).front(), '{');
  const std::string prom = read(prom_path);
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
}

TEST(TraceTest, UntracedSpanFeedsItsStageHistogram) {
  // Outside a request trace (training, offline eval) a span still
  // records its duration into the stage histogram, and joins no tree.
  SetEnabled(true);
  WideEventSink::Global().Clear();
  ASSERT_EQ(CurrentTraceId(), 0u);
  Histogram h(DefaultLatencyBucketsMs());
  {
    TraceSpan span("obs_test.stage", &h);
  }
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.max, 0.0);
  EXPECT_TRUE(WideEventSink::Global().Recent().empty());
}

TEST(TraceTest, ConcurrentSpansAreExactlyCounted) {
  Histogram h(DefaultLatencyBucketsMs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("obs_test.concurrent", &h);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.Snapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(EnabledTest, DisabledCountersAndSpansAreNoOps) {
  SetEnabled(false);
  Counter c;
  c.Increment();
  EXPECT_EQ(c.Value(), 0u);
  Histogram h(DefaultLatencyBucketsMs());
  {
    TraceSpan span("obs_test.disabled", &h);
  }
  EXPECT_EQ(h.Snapshot().count, 0u);
  // Direct Record stays live: it is a measurement helper, not an event.
  h.Record(1.0);
  EXPECT_EQ(h.Snapshot().count, 1u);
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
}

TEST(TraceIdTest, ResetRewindsTheCounter) {
  // Deterministic ids for a deterministic workload.
  ResetTraceIds(100);
  EXPECT_EQ(NextTraceId(), 100u);
  EXPECT_EQ(NextTraceId(), 101u);
  ResetTraceIds();
  EXPECT_EQ(NextTraceId(), 1u);
  ResetTraceIds();
}

TEST(TraceIdTest, CurrentTraceIdBelongsToTheServingThread) {
  SetEnabled(true);
  WideEventSink::Global().Configure(WideEventOptions{});
  ResetTraceIds(5);
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    RequestTrace trace("owner");
    EXPECT_EQ(CurrentTraceId(), 5u);
    uint64_t seen = 1;
    std::thread other([&seen] { seen = CurrentTraceId(); });
    other.join();
    EXPECT_EQ(seen, 0u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  WideEventSink::Global().Clear();
}

TEST(RequestTraceTest, BuildsTreeAccumulatesStagesAndEmitsWideEvent) {
  SetEnabled(true);
  WideEventSink::Global().Configure(WideEventOptions{});
  ResetTraceIds(1);
  {
    RequestTrace trace("obs_test");
    ASSERT_TRUE(trace.active());
    EXPECT_EQ(trace.trace_id(), 1u);
    trace.event().model_version = 7;
    TraceSpan request("serve.request.ms");
    { TraceSpan encode("serve.stage.encode.ms"); }
    { TraceSpan decode("serve.stage.route_decode.ms"); }
  }
  const std::vector<WideEvent> events = WideEventSink::Global().Recent();
  ASSERT_EQ(events.size(), 1u);
  const WideEvent& event = events[0];
  EXPECT_EQ(event.trace_id, 1u);
  EXPECT_EQ(event.tag, "obs_test");
  EXPECT_EQ(event.model_version, 7);
  // Spans land in completion order: encode, decode, then the root.
  ASSERT_EQ(event.spans.size(), 3u);
  const TraceEvent& encode = event.spans[0];
  const TraceEvent& decode = event.spans[1];
  const TraceEvent& root = event.spans[2];
  EXPECT_STREQ(root.stage, "serve.request.ms");
  EXPECT_EQ(root.parent_span_id, 0u);
  EXPECT_EQ(encode.parent_span_id, root.span_id);
  EXPECT_EQ(decode.parent_span_id, root.span_id);
  // Dense ids within the trace: root allocated first, then the children.
  EXPECT_EQ(root.span_id, 1u);
  EXPECT_EQ(encode.span_id, 2u);
  EXPECT_EQ(decode.span_id, 3u);
  // Child windows nest inside the root's window.
  EXPECT_GE(encode.start_ms, root.start_ms);
  EXPECT_LE(encode.duration_ms + decode.duration_ms,
            root.duration_ms + 1e-6);
  // The per-stage sums come from the tree, so tree and wide event agree
  // by construction, and they fit inside the request's wall time.
  EXPECT_DOUBLE_EQ(event.encode_ms, encode.duration_ms);
  EXPECT_DOUBLE_EQ(event.decode_ms, decode.duration_ms);
  EXPECT_LE(event.encode_ms + event.decode_ms, event.total_ms + 1e-6);
  EXPECT_GE(event.total_ms, root.duration_ms);
  // The JSONL line keeps its fields; the tree is served by /traces.
  EXPECT_EQ(WideEventSink::ToJsonLine(event).find("spans"),
            std::string::npos);
  WideEventSink::Global().Clear();
}

TEST(RequestTraceTest, NestedTraceIsInertAndSpansLandInOuter) {
  SetEnabled(true);
  WideEventSink::Global().Configure(WideEventOptions{});
  ResetTraceIds(1);
  {
    RequestTrace outer("outer");
    ASSERT_TRUE(outer.active());
    {
      RequestTrace inner("inner");
      EXPECT_FALSE(inner.active());
      TraceSpan span("obs_test.nested");
    }
  }
  // Only the outer trace emitted a wide event, and it holds the span.
  const std::vector<WideEvent> events = WideEventSink::Global().Recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tag, "outer");
  ASSERT_EQ(events[0].spans.size(), 1u);
  EXPECT_STREQ(events[0].spans[0].stage, "obs_test.nested");
  WideEventSink::Global().Clear();
}

TEST(RequestTraceTest, DisabledTraceIsInert) {
  SetEnabled(false);
  WideEventSink::Global().Clear();
  {
    RequestTrace trace("off");
    EXPECT_FALSE(trace.active());
    EXPECT_EQ(trace.trace_id(), 0u);
    EXPECT_EQ(CurrentTraceId(), 0u);
    trace.event().model_version = 9;  // dropped, must not crash
  }
  SetEnabled(true);
  EXPECT_TRUE(WideEventSink::Global().Recent().empty());
}

TEST(RequestTraceTest, ConcurrentRequestsKeepSpansInTheirOwnEvent) {
  // Each thread serves its own traced requests. Thread t opens t + 1
  // encode spans per request, so a span landing in another thread's
  // request would change that event's span count.
  SetEnabled(true);
  WideEventSink::Global().Configure(WideEventOptions{});
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 20;
  static_assert(kThreads * kRequestsPerThread <= 256, "fits the ring");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        RequestTrace trace("concurrent");
        trace.event().model_version = t;
        TraceSpan root("serve.request.ms");
        for (int k = 0; k <= t; ++k) {
          TraceSpan encode("serve.stage.encode.ms");
        }
        TraceSpan decode("serve.stage.route_decode.ms");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<WideEvent> events = WideEventSink::Global().Recent();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads * kRequestsPerThread));
  std::vector<int> per_thread(kThreads, 0);
  for (const WideEvent& e : events) {
    ASSERT_GE(e.model_version, 0);
    ASSERT_LT(e.model_version, kThreads);
    ++per_thread[e.model_version];
    // Root, t + 1 encodes and one decode, all children of the root.
    ASSERT_EQ(e.spans.size(), static_cast<size_t>(e.model_version + 3));
    const TraceEvent& root = e.spans.back();
    EXPECT_STREQ(root.stage, "serve.request.ms");
    EXPECT_EQ(root.parent_span_id, 0u);
    for (size_t i = 0; i + 1 < e.spans.size(); ++i) {
      EXPECT_EQ(e.spans[i].parent_span_id, root.span_id);
      EXPECT_EQ(e.spans[i].thread_slot, root.thread_slot);
    }
    EXPECT_LE(e.encode_ms + e.decode_ms, e.total_ms + 1e-6);
    EXPECT_LE(e.total_ms, 1e4);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[t], kRequestsPerThread) << "thread " << t;
  }
  WideEventSink::Global().Clear();
}

TEST(RequestTraceTest, HeadSampledOutRequestLeavesNoTree) {
  SetEnabled(true);
  WideEventOptions options;
  options.head_sample_every = 2;
  options.tail_keep_over_ms = 1e9;
  // Configure rewinds the head-sampling sequence, so of two consecutive
  // events the first is kept, whatever the process recorded before:
  // after an even and after an odd number of earlier events alike.
  for (int lead : {0, 1}) {
    SCOPED_TRACE(lead);
    WideEventSink::Global().Configure(options);
    for (int i = 0; i < lead; ++i) RequestTrace trace("lead");
    WideEventSink::Global().Configure(options);
    for (const char* tag : {"first", "second"}) {
      RequestTrace trace(tag);
      TraceSpan span("serve.request.ms");
    }
    const std::vector<WideEvent> kept = WideEventSink::Global().Recent();
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].tag, "first");
    const std::string json = ExportTracesJson();
    EXPECT_NE(json.find("\"tag\": \"first\""), std::string::npos) << json;
    EXPECT_EQ(json.find("\"tag\": \"second\""), std::string::npos)
        << json;
  }
  WideEventSink::Global().Configure(WideEventOptions{});
}

TEST(WideEventTest, HeadSamplingKeepsEveryNthTailKeepsSlow) {
  SetEnabled(true);
  WideEventSink sink;
  WideEventOptions options;
  options.head_sample_every = 3;
  options.tail_keep_over_ms = 100.0;
  sink.Configure(options);
  for (int i = 0; i < 9; ++i) {
    WideEvent event;
    event.trace_id = static_cast<uint64_t>(i + 1);
    event.total_ms = i == 4 ? 250.0 : 1.0;  // one slow outlier
    sink.Record(event);
  }
  // Head keeps seq 0, 3, 6; tail rescues the slow seq-4 event.
  const std::vector<WideEvent> kept = sink.Recent();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept[0].trace_id, 1u);
  EXPECT_EQ(kept[1].trace_id, 4u);
  EXPECT_EQ(kept[2].trace_id, 5u);
  EXPECT_EQ(kept[3].trace_id, 7u);
  EXPECT_EQ(sink.recorded(), 4u);
  EXPECT_EQ(sink.sampled_out(), 5u);
}

TEST(WideEventTest, HeadZeroKeepsOnlyTail) {
  SetEnabled(true);
  WideEventSink sink;
  WideEventOptions options;
  options.head_sample_every = 0;
  options.tail_keep_over_ms = 50.0;
  sink.Configure(options);
  WideEvent fast;
  fast.total_ms = 1.0;
  WideEvent slow;
  slow.total_ms = 60.0;
  sink.Record(fast);
  sink.Record(slow);
  const std::vector<WideEvent> kept = sink.Recent();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].total_ms, 60.0);
}

TEST(WideEventTest, RingWrapsKeepingNewestOldestFirst) {
  SetEnabled(true);
  WideEventSink sink;
  WideEventOptions options;
  options.ring_capacity = 3;
  sink.Configure(options);
  for (int i = 1; i <= 5; ++i) {
    WideEvent event;
    event.trace_id = static_cast<uint64_t>(i);
    sink.Record(event);
  }
  const std::vector<WideEvent> kept = sink.Recent();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].trace_id, 3u);
  EXPECT_EQ(kept[2].trace_id, 5u);
}

TEST(WideEventTest, ToJsonLineEscapesControlBytes) {
  WideEvent event;
  event.tag = "a\"b\\c\nd\x01" "e";  // split: \x01e would parse as \x1e
  event.total_ms = 12.5;
  const std::string line = WideEventSink::ToJsonLine(event);
  EXPECT_NE(line.find("\"tag\": \"a\\\"b\\\\c\\nd\\u0001e\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"total_ms\": 12.5"), std::string::npos) << line;
  // No raw control bytes survive escaping.
  for (char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << line;
  }
}

TEST(ExportTest, JsonEscapeCoversRfc8259) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("q\"b\\"), "q\\\"b\\\\");
  EXPECT_EQ(JsonEscape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
}

TEST(ExportTest, TracesJsonNestsChildrenUnderParents) {
  SetEnabled(true);
  WideEventSink::Global().Configure(WideEventOptions{});
  ResetTraceIds(1);
  {
    RequestTrace trace("json");
    TraceSpan root("serve.request.ms");
    TraceSpan child("serve.stage.encode.ms");
  }
  const std::string json = ExportTracesJson();
  EXPECT_NE(json.find("\"tag\": \"json\""), std::string::npos) << json;
  // The encode span renders nested inside the request root's children
  // array, not as a second top-level span.
  const size_t root_at = json.find("serve.request.ms");
  const size_t child_at = json.find("serve.stage.encode.ms");
  ASSERT_NE(root_at, std::string::npos) << json;
  ASSERT_NE(child_at, std::string::npos) << json;
  EXPECT_LT(root_at, child_at);
  EXPECT_NE(json.find("\"children\": [{\"stage\": "
                      "\"serve.stage.encode.ms\""),
            std::string::npos)
      << json;
  // The trees live in the wide-event ring: clearing it clears /traces.
  WideEventSink::Global().Clear();
  EXPECT_EQ(ExportTracesJson(), "[\n]\n");
}

TEST(ExportTest, WriteFileAtomicReplacesAndLeavesNoTmp) {
  const std::string path = "obs_test_atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first"));
  ASSERT_TRUE(WriteFileAtomic(path, "second"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[32] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  // The staging file never survives a successful write.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(AdminServerTest, HandlePathRoutesEveryEndpoint) {
  MetricsRegistry::Global().counter("obs_test.admin").Increment();
  AdminOptions options;
  options.extra_health_json = [] {
    return std::string("\"model_version\": 3");
  };
  AdminServer server(options);
  const HttpResponse metrics = server.HandlePath("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  const HttpResponse json = server.HandlePath("/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body.front(), '{');
  EXPECT_EQ(server.HandlePath("/traces").body.front(), '[');
  EXPECT_EQ(server.HandlePath("/events").body.front(), '[');
  const HttpResponse health = server.HandlePath("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"model_version\": 3"), std::string::npos);
  EXPECT_EQ(server.HandlePath("/").status, 200);
  EXPECT_EQ(server.HandlePath("/nope").status, 404);
}

/// Minimal blocking HTTP GET against loopback for the socket tests.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[2048];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(AdminServerTest, ServesConcurrentScrapesOverRealSockets) {
  MetricsRegistry::Global().counter("obs_test.admin").Increment();
  AdminServer server;  // port 0: ephemeral
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);
  constexpr int kClients = 4;
  constexpr int kScrapes = 5;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&server, &ok] {
      for (int i = 0; i < kScrapes; ++i) {
        const std::string resp = HttpGet(server.port(), "/metrics");
        if (resp.find("200 OK") != std::string::npos &&
            resp.find("# TYPE") != std::string::npos) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(ok.load(), kClients * kScrapes);
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kClients * kScrapes));
  // A second Start while running fails cleanly.
  EXPECT_FALSE(server.Start(&error));
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

/// Opens a loopback connection that never sends a byte.
int ConnectIdle(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(AdminServerTest, IdleClientsNeitherBlockScrapesNorStop) {
  using Clock = std::chrono::steady_clock;
  AdminServer server;
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  // Two idle clients queue ahead of a real scrape: each is dropped at
  // its deadline, then the scrape is served.
  const int idle_a = ConnectIdle(server.port());
  const int idle_b = ConnectIdle(server.port());
  ASSERT_GE(idle_a, 0);
  ASSERT_GE(idle_b, 0);
  const std::string resp = HttpGet(server.port(), "/metrics");
  EXPECT_NE(resp.find("200 OK"), std::string::npos) << resp;

  // Stop while the accept thread holds an idle client: it returns
  // within the deadline plus a second of slack.
  const int idle_c = ConnectIdle(server.port());
  const int idle_d = ConnectIdle(server.port());
  ASSERT_GE(idle_c, 0);
  ASSERT_GE(idle_d, 0);
  const Clock::time_point stop_begin = Clock::now();
  server.Stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             Clock::now() - stop_begin)
                             .count();
  EXPECT_LE(stop_ms, AdminServer::kConnectionDeadlineMs + 1000.0);
  EXPECT_FALSE(server.running());
  for (int fd : {idle_a, idle_b, idle_c, idle_d}) ::close(fd);
}

TEST(ThreadSlotTest, StableWithinThreadAndBounded) {
  const int slot = internal::ThreadSlot();
  EXPECT_EQ(slot, internal::ThreadSlot());
  EXPECT_GE(slot, 0);
  EXPECT_LT(slot, internal::kMaxShards);
  int other = -1;
  std::thread t([&other] { other = internal::ThreadSlot(); });
  t.join();
  EXPECT_GE(other, 0);
  EXPECT_LT(other, internal::kMaxShards);
}

}  // namespace
}  // namespace m2g::obs
