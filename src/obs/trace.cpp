#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "util/env_flags.hpp"

namespace oselm::obs {
namespace {

// One ring slot. The sequence number encodes the global write index of
// the event it holds: 2*w+1 while the producer is writing event w,
// 2*w+2 once complete. The drainer validates a slot against the index it
// expects; a larger sequence means the slot was recycled for a newer
// event (the old one was dropped — the producer counted that at
// overwrite time). Payload fields are atomics so the concurrent seqlock
// read is race-free by construction. The seqlock needs no standalone
// fences (which ThreadSanitizer does not model): payload stores are
// release and payload loads acquire, so a load that observes a newer
// event's payload happens-after that event's odd `seq` store, and the
// drainer's second `seq` read is guaranteed to see the recycle.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts_us{0};
  std::atomic<std::uint64_t> dur_us{0};
  std::atomic<const char*> category{nullptr};
  std::atomic<const char*> name{nullptr};
  std::atomic<char> phase{'i'};
};

constexpr std::size_t kDefaultRingCapacity = 8192;

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n && p < (std::size_t{1} << 30U)) p <<= 1U;
  return p;
}

class ThreadRing {
 public:
  ThreadRing(std::uint32_t tid, std::size_t capacity)
      : tid_(tid),
        capacity_(round_up_pow2(capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  // Producer side — owner thread only. Allocation-free and lock-free.
  void record(std::uint64_t ts, std::uint64_t dur, const char* category,
              const char* name, char phase) noexcept {
    const std::uint64_t w = write_index_.load(std::memory_order_relaxed);
    if (w >= capacity_ &&
        w - read_index_.load(std::memory_order_relaxed) >= capacity_) {
      // Recycling a slot the drainer has not consumed: the old event is
      // dropped, exactly once, at the moment it is overwritten.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    Slot& slot = slots_[w & mask_];
    slot.seq.store(2 * w + 1, std::memory_order_relaxed);
    slot.ts_us.store(ts, std::memory_order_release);
    slot.dur_us.store(dur, std::memory_order_release);
    slot.category.store(category, std::memory_order_release);
    slot.name.store(name, std::memory_order_release);
    slot.phase.store(phase, std::memory_order_release);
    slot.seq.store(2 * w + 2, std::memory_order_release);
    write_index_.store(w + 1, std::memory_order_release);
  }

  // Consumer side — callers serialize on the registry's drain mutex.
  void drain_into(std::vector<TraceEvent>* out) {
    const std::uint64_t w_total =
        write_index_.load(std::memory_order_acquire);
    std::uint64_t r = read_index_.load(std::memory_order_relaxed);
    if (w_total - r > capacity_) r = w_total - capacity_;
    for (; r < w_total; ++r) {
      const Slot& slot = slots_[r & mask_];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      TraceEvent event;
      event.ts_us = slot.ts_us.load(std::memory_order_acquire);
      event.dur_us = slot.dur_us.load(std::memory_order_acquire);
      event.category = slot.category.load(std::memory_order_acquire);
      event.name = slot.name.load(std::memory_order_acquire);
      event.phase = slot.phase.load(std::memory_order_acquire);
      event.tid = tid_;
      const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      // A mismatch means the producer recycled this slot mid-read; the
      // event it held was dropped (already counted by the producer).
      if (s1 != 2 * r + 2 || s2 != s1) continue;
      out->push_back(event);
    }
    read_index_.store(r, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  void reset_dropped() noexcept {
    dropped_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

  // Guarded by the registry mutex (set_thread_name / export only).
  std::string display_name;

 private:
  const std::uint32_t tid_;
  const std::size_t capacity_;
  const std::uint64_t mask_;
  const std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> write_index_{0};  ///< producer-owned
  std::atomic<std::uint64_t> read_index_{0};   ///< drainer-owned
  std::atomic<std::uint64_t> dropped_{0};
};

struct Registry {
  std::mutex mutex;        // rings vector, tids, display names
  std::mutex drain_mutex;  // serializes drainers
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint32_t next_tid = 1;
  std::atomic<std::size_t> capacity_override{0};
};

// Leaked on purpose: rings are reachable from thread_locals whose
// destruction order against function-local statics is unspecified.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

std::size_t ring_capacity_now() {
  Registry& reg = registry();
  const std::size_t override_cap =
      reg.capacity_override.load(std::memory_order_relaxed);
  if (override_cap != 0) return override_cap;
  const std::int64_t env = util::env_int(
      "OSELM_TRACE_RING_CAP", static_cast<std::int64_t>(kDefaultRingCapacity));
  return env > 1 ? static_cast<std::size_t>(env) : kDefaultRingCapacity;
}

// Lazily creates the calling thread's ring on first record. This is the
// only allocation/lock the producer path ever takes, once per thread —
// the steady-state record path is allocation- and mutex-free.
ThreadRing& ring_for_thread() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    auto created =
        std::make_shared<ThreadRing>(reg.next_tid++, ring_capacity_now());
    reg.rings.push_back(created);
    return created;
  }();
  return *ring;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::set_enabled(bool enabled) noexcept {
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_us() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void Tracer::instant(const char* category, const char* name) noexcept {
  if (!enabled()) return;
  ring_for_thread().record(now_us(), 0, category, name, 'i');
}

void Tracer::complete(const char* category, const char* name,
                      std::uint64_t start_us, std::uint64_t end_us) noexcept {
  ring_for_thread().record(start_us, end_us - start_us, category, name, 'X');
}

void Tracer::set_thread_name(const char* name) noexcept {
  ThreadRing& ring = ring_for_thread();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  ring.display_name.assign(name);
}

std::vector<TraceEvent> Tracer::drain() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> drain_lock(reg.drain_mutex);
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    rings = reg.rings;
  }
  std::vector<TraceEvent> events;
  for (const auto& ring : rings) ring->drain_into(&events);
  return events;
}

std::uint64_t Tracer::dropped_events() noexcept {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : reg.rings) total += ring->dropped();
  return total;
}

std::string Tracer::chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(event.name);
    out += "\",\"cat\":\"";
    out += json_escape(event.category);
    out += "\",\"ph\":\"";
    out += event.phase;
    out += '"';
    if (event.phase == 'X') {
      std::snprintf(buf, sizeof(buf),
                    ",\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%u}",
                    static_cast<unsigned long long>(event.ts_us),
                    static_cast<unsigned long long>(event.dur_us),
                    event.tid);
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",\"ts\":%llu,\"s\":\"t\",\"pid\":1,\"tid\":%u}",
                    static_cast<unsigned long long>(event.ts_us), event.tid);
    }
    out += buf;
  }
  // thread_name metadata so Perfetto labels the tracks.
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    if (ring->display_name.empty()) continue;
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"",
                  ring->tid());
    out += buf;
    out += json_escape(ring->display_name);
    out += "\"}}";
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json(drain());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << json;
  file.flush();
  return static_cast<bool>(file);
}

void Tracer::set_default_ring_capacity(std::size_t capacity) noexcept {
  registry().capacity_override.store(capacity, std::memory_order_relaxed);
}

void Tracer::reset_for_testing() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> drain_lock(reg.drain_mutex);
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<TraceEvent> discard;
  for (auto it = reg.rings.begin(); it != reg.rings.end();) {
    (*it)->drain_into(&discard);
    (*it)->reset_dropped();
    // use_count 1 means the owning thread's thread_local is gone — the
    // thread exited and the ring can never receive another event.
    if (it->use_count() == 1) {
      it = reg.rings.erase(it);
    } else {
      ++it;
    }
  }
}

bool validate_chrome_trace(const std::string& json, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr && error->empty()) *error = message;
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!parse_json(json, &root, &parse_error)) {
    return fail("not valid JSON: " + parse_error);
  }
  if (!root.is_object()) return fail("root is not an object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& event = events->items[i];
    const std::string at = " in traceEvents[" + std::to_string(i) + "]";
    if (!event.is_object()) return fail("event is not an object" + at);
    const JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string()) {
      return fail("missing string name" + at);
    }
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string_value.size() != 1) {
      return fail("missing one-char ph" + at);
    }
    const JsonValue* pid = event.find("pid");
    const JsonValue* tid = event.find("tid");
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      return fail("missing numeric pid/tid" + at);
    }
    const char phase = ph->string_value[0];
    if (phase == 'M') {
      const JsonValue* args = event.find("args");
      if (args == nullptr || !args->is_object()) {
        return fail("metadata event missing args object" + at);
      }
      continue;
    }
    const JsonValue* ts = event.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail("missing numeric ts" + at);
    }
    if (phase == 'X') {
      const JsonValue* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number()) {
        return fail("complete event missing numeric dur" + at);
      }
    }
  }
  return true;
}

}  // namespace oselm::obs
