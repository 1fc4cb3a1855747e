// Deterministic structured tracing for the mission/DSE machinery: a bounded
// ring buffer of spans, instants and counter samples, exported as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// Two timestamp domains share one recorder but never one track:
//   * mission events are stamped with *sim time* (microseconds of mission
//     time) — pure functions of the (spec, policy) pair, so an enabled
//     trace is byte-identical across runs, thread counts and Full/Timing
//     kernel modes (asserted by the fuzz harness);
//   * host-side phases (profiling sweeps, MCKP, repair) are stamped with
//     wall-clock time on the dedicated kHost track — useful for profiling
//     the toolchain itself, and excluded from any byte comparison.
//
// Determinism contract (docs/observability.md): recording is purely
// observational. Emission sites are gated on a null check and never feed
// back into engine arithmetic, so a traced run produces bit-identical
// reports to an untraced one; with the recorder detached the cost is one
// pointer test per site. The ring drops the *oldest* events when full
// (dropped() counts them), bounding memory on arbitrarily long missions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace daedvfs::obs {

/// Chrome trace-event phase of one record.
enum class Phase : std::uint8_t {
  kComplete,  ///< "X": span with explicit duration.
  kBegin,     ///< "B": opens a nested span on its track.
  kEnd,       ///< "E": closes the innermost open span.
  kInstant,   ///< "i": point event.
  kCounter,   ///< "C": sampled counter track.
};

/// Fixed track ids ("threads" in the trace viewer). Per-track event
/// timestamps are non-decreasing by construction — scripts/check_trace.py
/// re-derives that from the artifact.
enum class Track : std::uint8_t {
  kFrames = 1,   ///< Served frames (span per inference, rung-named).
  kRadio = 2,    ///< Uplink bursts and retry bursts.
  kGovernor = 3, ///< Pre-lock repositions + hit/miss instants.
  kFaults = 4,   ///< Reboots, checkpoints, shed captures.
  kLink = 5,     ///< Connectivity windows (B/E pairs).
  kBattery = 6,  ///< State-of-charge counter.
  kBacklog = 7,  ///< Uplink queue depth counter.
  kEnv = 8,      ///< Ambient / harvest / QoS-slack counters.
  kHost = 9,     ///< Wall-clock host phases (explore, MCKP, repair).
};

[[nodiscard]] const char* track_name(Track t);

/// Wall-clock microseconds since a process-local steady epoch (first call).
/// Timestamp source for kHost spans only — never for mission tracks, whose
/// stamps must be pure functions of the inputs.
[[nodiscard]] double host_now_us();

/// One recorded event. Strings are interned `const char*`s owned by the
/// recorder (or string literals), so events stay POD-cheap in the ring.
struct TraceEvent {
  Phase phase = Phase::kInstant;
  Track track = Track::kFrames;
  const char* name = "";
  double ts_us = 0.0;
  double dur_us = 0.0;        ///< kComplete only.
  double value = 0.0;         ///< kCounter only.
  const char* arg1_key = nullptr;  ///< Optional numeric args.
  double arg1 = 0.0;
  const char* arg2_key = nullptr;
  double arg2 = 0.0;
};

class TraceRecorder {
 public:
  /// Default ring capacity: ~2 days of a 10 s duty cycle with per-slot
  /// counters fits comfortably; longer missions wrap (oldest dropped).
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity < 1 ? 1 : capacity) {
    ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }

  /// Interns `s` and returns a pointer stable for the recorder's lifetime.
  /// Use for dynamic names (rung names); string literals need no interning.
  const char* intern(std::string_view s);

  void complete(Track track, const char* name, double ts_us, double dur_us) {
    TraceEvent e;
    e.phase = Phase::kComplete;
    e.track = track;
    e.name = name;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    push(e);
  }
  void complete(Track track, const char* name, double ts_us, double dur_us,
                const char* arg1_key, double arg1,
                const char* arg2_key = nullptr, double arg2 = 0.0) {
    TraceEvent e;
    e.phase = Phase::kComplete;
    e.track = track;
    e.name = name;
    e.ts_us = ts_us;
    e.dur_us = dur_us;
    e.arg1_key = arg1_key;
    e.arg1 = arg1;
    e.arg2_key = arg2_key;
    e.arg2 = arg2;
    push(e);
  }
  void begin(Track track, const char* name, double ts_us) {
    TraceEvent e;
    e.phase = Phase::kBegin;
    e.track = track;
    e.name = name;
    e.ts_us = ts_us;
    push(e);
  }
  void end(Track track, const char* name, double ts_us) {
    TraceEvent e;
    e.phase = Phase::kEnd;
    e.track = track;
    e.name = name;
    e.ts_us = ts_us;
    push(e);
  }
  void instant(Track track, const char* name, double ts_us) {
    TraceEvent e;
    e.phase = Phase::kInstant;
    e.track = track;
    e.name = name;
    e.ts_us = ts_us;
    push(e);
  }
  void counter(Track track, const char* name, double ts_us, double value) {
    TraceEvent e;
    e.phase = Phase::kCounter;
    e.track = track;
    e.name = name;
    e.ts_us = ts_us;
    e.value = value;
    push(e);
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events overwritten by the ring (recorded() - size()).
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(ring_.size());
  }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Retained events in recording (chronological) order.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit":
  /// "ms", "metadata": {...}}. One event per line; fixed "%.3f" timestamp
  /// and "%.9g" value formatting so the byte stream is reproducible across
  /// platforms and locales.
  void write_chrome_json(std::ostream& os) const;

  void clear() {
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
  }

 private:
  void push(const TraceEvent& e) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
      return;
    }
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
  }

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< Oldest retained event once the ring wrapped.
  std::uint64_t recorded_ = 0;
  std::deque<std::string> interned_;
  std::unordered_map<std::string, const char*> intern_index_;
};

}  // namespace daedvfs::obs
