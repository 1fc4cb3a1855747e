// Unit tests for the observability layer (src/obs/) and the shared JSON
// emission helpers it standardizes on (src/util/json_writer.hpp), plus the
// instrumentation hooks grown on ProfileCache and ThreadPool for the
// metrics registry. The end-to-end determinism contract (traced run ==
// untraced run, trace byte-stable across runs/kernel modes) lives in
// tests/test_scenario_fuzz.cpp; this file pins the building blocks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dse/profile_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs {
namespace {

std::string chrome_json(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_chrome_json(os);
  return os.str();
}

// ---- util::json_writer ------------------------------------------------

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(util::json_escaped("plain"), "plain");
  EXPECT_EQ(util::json_escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escaped("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escaped("\r"), "\\r");
  EXPECT_EQ(util::json_escaped(std::string("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

TEST(JsonWriter, QuotedAndStreamedFormsAgree) {
  const std::string s = "rung \"eco\"\n";
  EXPECT_EQ(util::json_quoted(s), "\"rung \\\"eco\\\"\\n\"");
  std::ostringstream os;
  util::write_json_string(os, s);
  EXPECT_EQ(os.str(), util::json_quoted(s));

  std::string out = "prefix:";
  util::append_json_escaped(out, s);
  EXPECT_EQ(out, "prefix:rung \\\"eco\\\"\\n");
}

TEST(JsonWriter, BoolLiterals) {
  EXPECT_STREQ(util::json_bool(true), "true");
  EXPECT_STREQ(util::json_bool(false), "false");
}

// ---- obs::TraceRecorder -----------------------------------------------

TEST(TraceRecorder, RecordsAllPhasesInOrder) {
  obs::TraceRecorder tr;
  tr.begin(obs::Track::kLink, "window", 10.0);
  tr.complete(obs::Track::kFrames, "r0", 20.0, 5.0, "e_uj", 42.5);
  tr.instant(obs::Track::kFaults, "reset", 30.0);
  tr.counter(obs::Track::kBattery, "battery_mwh", 40.0, 990.0);
  tr.end(obs::Track::kLink, "window", 50.0);

  const std::vector<obs::TraceEvent> ev = tr.events();
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].phase, obs::Phase::kBegin);
  EXPECT_EQ(ev[1].phase, obs::Phase::kComplete);
  EXPECT_DOUBLE_EQ(ev[1].dur_us, 5.0);
  ASSERT_NE(ev[1].arg1_key, nullptr);
  EXPECT_STREQ(ev[1].arg1_key, "e_uj");
  EXPECT_DOUBLE_EQ(ev[1].arg1, 42.5);
  EXPECT_EQ(ev[2].phase, obs::Phase::kInstant);
  EXPECT_EQ(ev[3].phase, obs::Phase::kCounter);
  EXPECT_DOUBLE_EQ(ev[3].value, 990.0);
  EXPECT_EQ(ev[4].phase, obs::Phase::kEnd);
  EXPECT_EQ(tr.recorded(), 5u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(TraceRecorder, RingDropsOldestAndCountsDropped) {
  obs::TraceRecorder tr(4);
  for (int i = 0; i < 10; ++i) {
    tr.instant(obs::Track::kFrames, "tick", static_cast<double>(i));
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const std::vector<obs::TraceEvent> ev = tr.events();
  ASSERT_EQ(ev.size(), 4u);
  // Oldest dropped: the retained window is [6, 10) in chronological order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ev[static_cast<std::size_t>(i)].ts_us,
                     static_cast<double>(6 + i));
  }
}

TEST(TraceRecorder, InternReturnsStableDedupedPointers) {
  obs::TraceRecorder tr;
  const char* a = tr.intern("qos+20%");
  const char* b = tr.intern(std::string("qos+") + "20%");
  EXPECT_EQ(a, b);  // same contents, same pointer
  const char* c = tr.intern("qos+50%");
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "qos+20%");
  EXPECT_STREQ(c, "qos+50%");
}

TEST(TraceRecorder, ChromeJsonIsWellFormedAndByteStable) {
  auto record = [](obs::TraceRecorder& tr) {
    tr.begin(obs::Track::kLink, "window", 1.0);
    tr.complete(obs::Track::kFrames, tr.intern("rung \"x\""), 2.0, 3.5,
                "e_uj", 7.25, "debt_s", 0.125);
    tr.counter(obs::Track::kBacklog, "backlog", 4.0, 12.0);
    tr.end(obs::Track::kLink, "window", 5.0);
  };
  obs::TraceRecorder t1;
  obs::TraceRecorder t2;
  record(t1);
  record(t2);
  const std::string j1 = chrome_json(t1);
  EXPECT_EQ(j1, chrome_json(t2));

  // Structural spot checks on the artifact (scripts/check_trace.py runs
  // the full validation in CI).
  EXPECT_NE(j1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(j1.find("\"rung \\\"x\\\"\""), std::string::npos);  // escaped name
  EXPECT_NE(j1.find("\"e_uj\": 7.25"), std::string::npos);
  EXPECT_NE(j1.find("\"dropped_events\": 0"), std::string::npos);
  // Thread-name metadata for every track that appeared.
  EXPECT_NE(j1.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(j1.find("\"frames\""), std::string::npos);
  EXPECT_NE(j1.find("\"link\""), std::string::npos);
  EXPECT_NE(j1.find("\"backlog\""), std::string::npos);
}

TEST(TraceRecorder, ClearResetsRingAndCounters) {
  obs::TraceRecorder tr(2);
  tr.instant(obs::Track::kFrames, "a", 1.0);
  tr.instant(obs::Track::kFrames, "b", 2.0);
  tr.instant(obs::Track::kFrames, "c", 3.0);
  EXPECT_EQ(tr.dropped(), 1u);
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
  tr.instant(obs::Track::kFrames, "d", 4.0);
  ASSERT_EQ(tr.events().size(), 1u);
  EXPECT_STREQ(tr.events()[0].name, "d");
}

TEST(TraceRecorder, HostClockIsMonotone) {
  const double a = obs::host_now_us();
  const double b = obs::host_now_us();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// ---- obs::MetricsRegistry ---------------------------------------------

TEST(MetricsRegistry, InstrumentsAccumulateAndReferencesAreStable) {
  obs::MetricsRegistry mx;
  obs::Counter& c = mx.counter("scenario.frames_served");
  c.add();
  c.add(4);
  // Creating more instruments must not invalidate `c` (map storage).
  for (int i = 0; i < 64; ++i) {
    (void)mx.counter("filler." + std::to_string(i));
  }
  c.add(5);
  EXPECT_EQ(mx.counter("scenario.frames_served").value(), 10u);

  mx.gauge("battery").set(12.5);
  EXPECT_DOUBLE_EQ(mx.gauge("battery").value(), 12.5);

  obs::Histogram& h = mx.histogram("backlog");
  h.observe(2.0);
  h.observe(8.0);
  h.observe(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(MetricsRegistry, JsonIsSortedAndByteStable) {
  obs::MetricsRegistry mx;
  mx.counter("z.last").add(2);
  mx.counter("a.first").add(1);
  mx.gauge("mid").set(0.5);
  std::ostringstream o1;
  std::ostringstream o2;
  mx.write_json(o1);
  mx.write_json(o2);
  EXPECT_EQ(o1.str(), o2.str());
  const std::string j = o1.str();
  const std::size_t a = j.find("\"a.first\"");
  const std::size_t z = j.find("\"z.last\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);  // std::map order
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);  // empty section
}

TEST(MetricsRegistry, EmptyRegistryDumpsEmptySections) {
  obs::MetricsRegistry mx;
  EXPECT_TRUE(mx.empty());
  std::ostringstream os;
  mx.write_json(os);
  EXPECT_NE(os.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(os.str().find("\"gauges\""), std::string::npos);
}

// ---- dse::ProfileCache ------------------------------------------------

TEST(ProfileCache, UnboundedByDefault) {
  dse::ProfileCache cache;
  for (std::uint64_t i = 0; i < 100; ++i) {
    cache.store(i, 1, 2, {1.0, 2.0});
  }
  EXPECT_EQ(cache.size(), 100u);
}

// ---- util::ThreadPool stats -------------------------------------------

TEST(ThreadPoolStats, CountsSubmittedTasksInlineAndThreaded) {
  util::ThreadPool inline_pool(0);
  for (int i = 0; i < 5; ++i) inline_pool.submit([] {});
  EXPECT_EQ(inline_pool.stats().tasks, 5u);
  EXPECT_EQ(inline_pool.stats().max_queue_depth, 0u);  // never queued

  util::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  pool.wait_idle();
  const util::ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.tasks, 8u);
  EXPECT_GE(s.max_queue_depth, 1u);
}

}  // namespace
}  // namespace daedvfs
