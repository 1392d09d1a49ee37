// Metrics registry: counter/gauge/histogram semantics, Prometheus text
// exposition (escaping, cumulative buckets), and its determinism across
// two identical seeded simulation runs.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/registry.hpp"
#include "obs/obs.hpp"

namespace nowlb {
namespace {

TEST(Counter, IncrementsAndReads) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketsAreUpperBoundInclusive) {
  obs::Histogram h({1.0, 10.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (le is inclusive, Prometheus convention)
  h.observe(5.0);   // <= 10
  h.observe(100.0); // +Inf
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
}

TEST(Histogram, QuantilesInterpolateInsideTheBucket) {
  obs::Histogram h({10.0, 20.0, 40.0});
  // 4 observations in (0,10], 4 in (10,20], 2 in (20,40].
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  for (int i = 0; i < 4; ++i) h.observe(15.0);
  for (int i = 0; i < 2; ++i) h.observe(30.0);
  // p50: rank 5 of 10 -> 1st observation inside (10,20] -> 10 + 20%*10.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 12.5);
  // p90: rank 9 -> 1st of 2 inside (20,40] -> 20 + 50%*20.
  EXPECT_DOUBLE_EQ(h.quantile(0.90), 30.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));  // clamped
}

TEST(Histogram, QuantileEdgeCases) {
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  // Estimates landing in +Inf clamp to the highest finite bound.
  obs::Histogram inf_heavy({1.0});
  inf_heavy.observe(100.0);
  inf_heavy.observe(200.0);
  EXPECT_DOUBLE_EQ(inf_heavy.quantile(0.99), 1.0);
}

TEST(MetricsRegistry, PrometheusDumpCarriesQuantiles) {
  obs::MetricsRegistry m;
  obs::Histogram& h = m.histogram("lat", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("lat_p50 5\n"), std::string::npos) << text;
  // p90/p99 interpolate to 9 and 9.9; full-precision formatting may carry
  // representation digits, so only pin the prefix.
  EXPECT_NE(text.find("lat_p90 9"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_p99 9.9"), std::string::npos) << text;
  // An empty histogram dumps no quantile lines (they would be meaningless).
  obs::MetricsRegistry m2;
  m2.histogram("idle", {1.0});
  EXPECT_EQ(m2.prometheus_text().find("_p50"), std::string::npos);
}

TEST(MetricsRegistry, ReRegistrationReturnsTheSameMetric) {
  obs::MetricsRegistry m;
  obs::Counter& a = m.counter("x", "first help wins");
  obs::Counter& b = m.counter("x", "ignored");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(m.find_counter("x")->value(), 3u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry m;
  m.counter("x");
  EXPECT_THROW(m.gauge("x"), std::logic_error);
  EXPECT_THROW(m.histogram("x", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, FindReturnsNullOnAbsentOrWrongKind) {
  obs::MetricsRegistry m;
  m.counter("c");
  EXPECT_EQ(m.find_counter("missing"), nullptr);
  EXPECT_EQ(m.find_gauge("c"), nullptr);
  EXPECT_NE(m.find_counter("c"), nullptr);
}

TEST(MetricsRegistry, PrometheusTextIsNameOrderedAndTyped) {
  obs::MetricsRegistry m;
  m.counter("zeta", "last").inc(7);
  m.gauge("alpha", "first").set(1.5);
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("# HELP alpha first\n# TYPE alpha gauge\nalpha 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zeta counter\nzeta 7\n"), std::string::npos);
  EXPECT_LT(text.find("alpha"), text.find("zeta"));
}

TEST(MetricsRegistry, PrometheusHelpEscaping) {
  obs::MetricsRegistry m;
  m.counter("c", "line one\nback\\slash");
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("# HELP c line one\\nback\\\\slash\n"),
            std::string::npos);
}

TEST(MetricsRegistry, PrometheusHistogramIsCumulativeWithInf) {
  obs::MetricsRegistry m;
  obs::Histogram& h = m.histogram("lat", {0.25, 1.0}, "latency");
  h.observe(0.25);
  h.observe(0.5);
  h.observe(2.0);
  const std::string text = m.prometheus_text();
  EXPECT_NE(text.find("lat_bucket{le=\"0.25\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 2.75\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
}

// Two identical seeded runs must register and count the exact same
// metrics: the export is deterministic byte-for-byte.
TEST(MetricsRegistry, SnapshotsAreDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    obs::Observability hub;
    const exp::Workload mm{apps::App::kMm, 48};
    exp::ExperimentConfig cfg = exp::config(mm, 3);
    cfg.world.seed = 1234;
    cfg.obs = &hub;
    exp::run(mm, cfg);
    return hub.metrics.prometheus_text();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  // The run actually counted something.
  EXPECT_NE(a.find("lb_rounds"), std::string::npos);
  EXPECT_NE(a.find("sim_messages_sent"), std::string::npos);
}

}  // namespace
}  // namespace nowlb
