// randsync repository benchmark.
//
//   randsync_perfbench --workload <name> [--seed N] [--seconds S]
//                      [--trace 0|1]
//
// Runs one workload as a closed batch of fixed work -- the next
// operation starts when the previous one ends -- and prints every
// metric with its unit, then one JSON object as the last line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off over repetitions of the fixed work for at least --seconds
// seconds (medians are reported).  With --trace 1 the run instead
// records one span around every call it makes into a layer, times the
// layers' public functions one call batch at a time, and reports the
// per-layer metrics.  Layers are only ever measured from outside: the
// benchmark times calls into src/runtime, src/objects, src/protocols,
// src/core and src/verify and never patches them.
//
// perfbench/README.md explains why each workload exists and which
// per-layer metric should move which end-to-end metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bounds.h"
#include "core/clone_adversary.h"
#include "core/general_adversary.h"
#include "objects/type_registry.h"
#include "protocols/harness.h"
#include "protocols/registry.h"
#include "runtime/coin.h"
#include "runtime/configuration.h"
#include "runtime/executor.h"
#include "runtime/parallel.h"
#include "verify/adversary_policies.h"
#include "verify/explorer.h"
#include "verify/fuzz.h"
#include "verify/por.h"
#include "verify/state_set.h"
#include "verify/symmetry.h"
#include "verify/trace_audit.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace randsync;

/// The seed every pinned output check refers to, and the one used
/// while the benchmark was written.
constexpr std::uint64_t kDefaultSeed = 1;
/// Reserved for validating performance claims: never tune against it.
constexpr std::uint64_t kHeldOutSeed = 7919;

constexpr std::size_t kSetupRounds = 9;
/// Per-call probes stop after this much timed work or wall time.
constexpr double kProbeTimed = 0.05;
constexpr double kProbeWall = 1.0;

const char* const kWorkloads[] = {"explore-deep", "explore-reduced", "fuzz",
                                  "attack"};

// ---------------------------------------------------------------------
// Flags.  Parsed strictly: a malformed or repeated flag exits with 2.

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 25;
  bool trace = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "randsync_perfbench: %s\n"
               "usage: randsync_perfbench --workload "
               "<explore-deep|explore-reduced|fuzz|attack>\n"
               "         [--seed N] [--seconds S] [--trace 0|1]\n"
               "  --seed     unsigned decimal (default %llu; held-out "
               "seed for claims: %llu)\n"
               "  --seconds  whole seconds of measured work, >= 1 "
               "(default 25)\n",
               message.c_str(), static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

std::uint64_t parse_unsigned(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, error] = std::from_chars(first, last, value);
  if (text.empty() || error != std::errc() || end != last) {
    usage_error(flag + " expects an unsigned decimal integer, got '" + text +
                "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::vector<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage_error("missing value for " + flag);
    }
    const std::string value = argv[i + 1];
    if (std::find(seen.begin(), seen.end(), flag) != seen.end()) {
      usage_error("repeated flag " + flag);
    }
    seen.push_back(flag);
    if (flag == "--workload") {
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads), value) ==
          std::end(kWorkloads)) {
        usage_error("unknown workload '" + value + "'");
      }
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_unsigned(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = parse_unsigned(flag, value);
      if (args.seconds == 0) {
        usage_error("--seconds must be at least 1");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace expects 0 or 1, got '" + value + "'");
      }
      args.trace = value == "1";
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (args.workload.empty()) {
    usage_error("--workload is required");
  }
  return args;
}

// ---------------------------------------------------------------------
// Clocks and resource usage.

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user = 0;
  double sys = 0;
};

CpuTimes cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall and CPU time of one stretch of work (CPU covers every thread).
struct Interval {
  double wall = 0;
  double user = 0;
  double sys = 0;

  [[nodiscard]] double cpu() const { return user + sys; }
  Interval& operator+=(const Interval& other) {
    wall += other.wall;
    user += other.user;
    sys += other.sys;
    return *this;
  }
};

template <typename Fn>
Interval timed(Fn&& fn) {
  const CpuTimes c0 = cpu_now();
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  const CpuTimes c1 = cpu_now();
  return {t1 - t0, c1.user - c0.user, c1.sys - c0.sys};
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) {
    return 0;
  }
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Keeps results of timed calls observable so no call is optimized out.
std::atomic<std::uint64_t> g_sink{0};
void consume(std::uint64_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each layer, kept in
// memory and written as Chrome trace-event JSON when the run ends.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_s()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint64_t begin(const char* layer, std::string name,
                      std::uint64_t parent) {
    const double start = now_s() - origin_;
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    spans_.push_back({layer, std::move(name), parent, start, start, thread});
    return spans_.size();  // ids are 1-based; 0 means "no parent"
  }

  void end(std::uint64_t id) {
    const double stop = now_s() - origin_;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).end = stop;
  }

  /// Writes the spans plus `metadata` and `metrics` (pre-rendered JSON
  /// object bodies) to `path`.  Returns false if the file can't be
  /// written.
  bool write(const std::string& path, const std::string& metadata,
             const std::string& metrics) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << "{\"metadata\": {" << metadata << "},\n \"metrics\": {" << metrics
        << "},\n \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, "
                    "\"dur\": %.3f",
                    s.thread % 100000, s.start * 1e6, (s.end - s.start) * 1e6);
      out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.layer << "\", " << buf
          << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    std::string layer;
    std::string name;
    std::uint64_t parent;
    double start;
    double end;
    std::size_t thread;
  };

  bool enabled_;
  double origin_;
  std::mutex mu_;
  std::vector<Record> spans_;
};

/// RAII span; a no-op (no clock read) when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, const std::string& name,
       std::uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.begin(layer, name, parent) : 0) {}
  ~Span() {
    if (id_ != 0) {
      tracer_.end(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------
// Metrics.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (README.md defines
/// each one per workload).  failed_frac is printed but not part of the
/// JSON metrics: it is 0 on a healthy run, and the JSON's
/// attempted/failed carry it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"cpu_s", "s"},            {"peak_rss_mb", "MiB"},
    {"states_per_s", "1/s"},   {"speedup", "x"},
    {"trials_per_s", "1/s"},   {"steps_per_s", "1/s"},
};

/// Per-layer metrics, reported by every traced run; a layer a workload
/// never calls reads 0 there (README.md lists which).
constexpr MetricDef kPerLayer[] = {
    {"runtime.step_ns", "ns"},
    {"runtime.clone_ns", "ns"},
    {"runtime.clone_into_ns", "ns"},
    {"runtime.fingerprint_ns", "ns"},
    {"runtime.all_decided_ns", "ns"},
    {"runtime.memory_bytes_ns", "ns"},
    {"runtime.solo_terminate_us", "us"},
    {"runtime.worker_util", "ratio"},
    {"runtime.sys_frac", "ratio"},
    {"objects.apply_ns.counter", "ns"},
    {"objects.apply_ns.register", "ns"},
    {"objects.apply_ns.fetch_add", "ns"},
    {"objects.apply_ns.swap", "ns"},
    {"objects.apply_ns.test_and_set", "ns"},
    {"protocols.poised_ns", "ns"},
    {"protocols.on_response_ns", "ns"},
    {"core.attack_s.historyless-mixed", "s"},
    {"core.attack_s.historyless-swaps", "s"},
    {"core.attack_s.conciliator", "s"},
    {"core.attack_s.bidirectional-mixed", "s"},
    {"core.attack_s.round-voting", "s"},
    {"core.attack_s.bidirectional-voting", "s"},
    {"core.pieces", "count"},
    {"core.rebuilds", "count"},
    {"core.processes_used", "count"},
    {"core.clones_created", "count"},
    {"explorer.states", "count"},
    {"explorer.transitions", "count"},
    {"explorer.dedup_rate", "ratio"},
    {"explorer.orbit_collapse", "ratio"},
    {"explorer.bytes_per_state", "B"},
    {"explorer.unattributed_frac", "ratio-modelled"},
    {"state_set.claim_ns", "ns"},
    {"state_set.claim_ns_mt", "ns"},
    {"state_set.bytes_per_entry", "B"},
    {"store.capped_wall_ratio", "ratio"},
    {"store.capped_peak_rss_mb", "MiB"},
    {"symmetry.canonical_ns", "ns"},
    {"por.persistent_set_ns", "ns"},
    {"fuzz.steps_per_trial", "count"},
    {"policies.next_ns", "ns"},
    {"audit.trace_ms", "ms"},
    {"tracing.overhead_frac", "ratio"},
};

using Metrics = std::map<std::string, double>;

std::string render_metrics(const MetricDef* defs, std::size_t count,
                           Metrics& values) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, values[defs[i].name],
                  defs[i].unit);
    out += buf;
  }
  return out;
}

void print_table(const MetricDef* defs, std::size_t count, Metrics& values) {
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("  %-36s %18.6f %s\n", defs[i].name, values[defs[i].name],
                defs[i].unit);
  }
}

// ---------------------------------------------------------------------
// One repetition of a workload's fixed work: a 1-thread pass and a
// threaded pass over the same operations, plus the output checks
// (outside the timed region).

struct RepResult {
  Interval single;    ///< 1-thread pass
  Interval threaded;  ///< threaded pass
  double rate_wall = 0;  ///< wall the rates divide by (README.md)
  double states = 0;     ///< configurations reached in one pass
  double steps = 0;      ///< simulated steps in one pass
  double ops = 0;        ///< operations in one pass
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< failed output checks
};

/// The configurations the per-call probes sample from.
struct Instance {
  std::shared_ptr<const ConsensusProtocol> protocol;
  std::vector<int> inputs;
  std::uint64_t coin_seed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the instance and warm up; the caller times this as setup_s.
  virtual void setup() = 0;
  /// Runs the fixed work once.
  virtual RepResult run(Tracer& tracer) = 0;
  /// The instance whose configurations the per-call probes time.
  [[nodiscard]] virtual const Instance& instance() const = 0;
  /// Traced runs only, before the first repetition.
  virtual void before_traced_reps(Tracer& tracer) { (void)tracer; }
  /// Workload-specific per-layer metrics from the last (traced)
  /// repetition; `metrics` already holds the per-call probes.  Checks
  /// that only a traced run makes are added to `traced`.
  virtual void layer_metrics(RepResult& traced, Tracer& tracer,
                             Metrics& metrics) = 0;
};

std::vector<int> parse_bits(const std::string& bits) {
  std::vector<int> inputs;
  for (char c : bits) {
    inputs.push_back(c - '0');
  }
  return inputs;
}

std::shared_ptr<const ConsensusProtocol> make_protocol(
    const std::string& name, std::optional<std::size_t> param) {
  const ProtocolEntry* entry = find_protocol(name);
  if (entry == nullptr) {
    throw std::runtime_error("protocol not in the registry: " + name);
  }
  return entry->make(param);
}

// ---------------------------------------------------------------------
// Per-call probes over configurations sampled from an instance.

/// The first undecided process at or after `start`, cyclically.
/// Precondition: some process is undecided.
ProcessId first_undecided_from(const Configuration& config, ProcessId start) {
  ProcessId pid = start % config.num_processes();
  while (config.decided(pid)) {
    pid = (pid + 1) % config.num_processes();
  }
  return pid;
}

/// Steps `config` along a random schedule of up to `length` steps
/// (stopping early once every process decided); returns the schedule.
std::vector<ProcessId> random_walk(Configuration& config, SplitMixCoin& coin,
                                   std::size_t length) {
  std::vector<ProcessId> schedule;
  while (schedule.size() < length && !config.all_decided()) {
    const ProcessId pid =
        first_undecided_from(config, coin.below(config.num_processes()));
    (void)config.step(pid);
    schedule.push_back(pid);
  }
  return schedule;
}

/// `count` configurations reached by random schedules of up to
/// `max_prefix` steps from the instance's initial configuration; each
/// keeps at least one undecided process.
std::vector<Configuration> sample_configurations(const Instance& inst,
                                                 SplitMixCoin& coin,
                                                 std::size_t count,
                                                 std::size_t max_prefix) {
  const Configuration initial =
      make_initial_configuration(*inst.protocol, inst.inputs, inst.coin_seed);
  std::vector<Configuration> samples;
  for (std::size_t attempt = 0; samples.size() < count && attempt < 8 * count;
       ++attempt) {
    Configuration config = initial.clone();
    (void)random_walk(config, coin, coin.below(max_prefix + 1));
    if (!config.all_decided()) {
      samples.push_back(std::move(config));
    }
  }
  return samples;
}

/// Timed seconds and call count of one probe batch.
using Batch = std::pair<double, std::size_t>;

/// Repeats `round` -- one timed batch -- until kProbeTimed of timed
/// work or kProbeWall of wall time, and returns the mean cost per call
/// in nanoseconds.
template <typename Round>
double probe_ns(Tracer& tracer, std::uint64_t parent, const char* layer,
                const char* name, Round round) {
  const Span span(tracer, layer, name, parent);
  double timed_s = 0;
  std::size_t calls = 0;
  const double start = now_s();
  do {
    const auto [seconds, count] = round();
    timed_s += seconds;
    calls += count;
  } while (timed_s < kProbeTimed && now_s() - start < kProbeWall);
  return ratio(timed_s * 1e9, static_cast<double>(calls));
}

/// probe_ns for a call that leaves its configuration unchanged: one
/// batch calls `call(sample)` once per sample.
template <typename Call>
double probe_each(Tracer& tracer, std::uint64_t parent, const char* layer,
                  const char* name, const std::vector<Configuration>& samples,
                  Call call) {
  return probe_ns(tracer, parent, layer, name, [&]() -> Batch {
    std::uint64_t acc = 0;
    const double t0 = now_s();
    for (const Configuration& s : samples) {
      acc += static_cast<std::uint64_t>(call(s));
    }
    const double t1 = now_s();
    consume(acc);
    return {t1 - t0, samples.size()};
  });
}

/// Times the runtime, objects, protocols, policies, symmetry and por
/// entry points on configurations of `inst`.
void probe_layers(const Instance& inst, std::uint64_t seed, Tracer& tracer,
                  Metrics& m) {
  const Span root(tracer, "perfbench", "per-call probes");
  const std::size_t n = inst.inputs.size();
  const bool small = n <= 64;  // the explorer's own limit (verify/por.h)
  SplitMixCoin coin(seed);
  std::vector<Configuration> samples =
      sample_configurations(inst, coin, small ? 64 : 4, 64);
  if (samples.empty()) {
    throw std::runtime_error("no undecided configuration to probe");
  }
  std::vector<std::vector<ProcessId>> schedules;
  for (const Configuration& s : samples) {
    Configuration scratch = s.clone();
    schedules.push_back(random_walk(scratch, coin, small ? 256 : 4096));
  }
  const auto clone_all = [&] {
    std::vector<Configuration> copies;
    for (const Configuration& s : samples) {
      copies.push_back(s.clone());
    }
    return copies;
  };

  // step, and state_fingerprint after each step: the same schedules
  // replayed without and with a fingerprint query.
  double step_s = 0;
  double fingerprint_s = 0;
  std::size_t steps = 0;
  {
    const Span span(tracer, "runtime", "step + state_fingerprint", root.id());
    const double start = now_s();
    do {
      std::vector<Configuration> plain = clone_all();
      std::vector<Configuration> hashed = clone_all();
      const double t0 = now_s();
      for (std::size_t i = 0; i < plain.size(); ++i) {
        for (ProcessId pid : schedules[i]) {
          (void)plain[i].step(pid);
        }
      }
      const double t1 = now_s();
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < hashed.size(); ++i) {
        for (ProcessId pid : schedules[i]) {
          (void)hashed[i].step(pid);
          acc ^= hashed[i].state_fingerprint().lo;
        }
      }
      const double t2 = now_s();
      consume(acc);
      step_s += t1 - t0;
      fingerprint_s += (t2 - t1) - (t1 - t0);
      for (const auto& s : schedules) {
        steps += s.size();
      }
    } while (step_s < kProbeTimed && now_s() - start < kProbeWall);
  }
  m["runtime.step_ns"] = ratio(step_s * 1e9, static_cast<double>(steps));
  m["runtime.fingerprint_ns"] =
      ratio(fingerprint_s * 1e9, static_cast<double>(steps));

  // clone() including destruction of the copy.
  m["runtime.clone_ns"] = probe_each(
      tracer, root.id(), "runtime", "clone", samples,
      [](const Configuration& s) { return s.clone().num_processes(); });

  // clone_into() over a scratch that holds a different configuration,
  // as in a rewind loop.
  {
    std::vector<Configuration> scratch;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      scratch.push_back(samples[(i + 1) % samples.size()].clone());
    }
    m["runtime.clone_into_ns"] =
        probe_ns(tracer, root.id(), "runtime", "clone_into", [&]() -> Batch {
          const double t0 = now_s();
          for (std::size_t i = 0; i < samples.size(); ++i) {
            samples[i].clone_into(scratch[i]);
          }
          const double t1 = now_s();
          for (std::size_t i = 0; i < samples.size(); ++i) {
            samples[(i + 1) % samples.size()].clone_into(scratch[i]);
          }
          return {t1 - t0, samples.size()};
        });
  }

  m["runtime.all_decided_ns"] = probe_each(
      tracer, root.id(), "runtime", "all_decided", samples,
      [](const Configuration& s) { return s.all_decided(); });
  m["runtime.memory_bytes_ns"] = probe_each(
      tracer, root.id(), "runtime", "memory_bytes", samples,
      [](const Configuration& s) { return s.memory_bytes(); });

  m["runtime.solo_terminate_us"] =
      probe_ns(tracer, root.id(), "runtime", "solo_terminate",
               [&]() -> Batch {
                 std::vector<Configuration> copies = clone_all();
                 std::vector<ProcessId> pids;
                 for (const Configuration& c : copies) {
                   pids.push_back(first_undecided_from(
                       c, coin.below(c.num_processes())));
                 }
                 std::uint64_t acc = 0;
                 const double t0 = now_s();
                 for (std::size_t i = 0; i < copies.size(); ++i) {
                   const SoloResult solo =
                       solo_terminate(copies[i], pids[i], 200'000, 64, seed);
                   acc += solo.trace.size();
                 }
                 const double t1 = now_s();
                 consume(acc);
                 return {t1 - t0, copies.size()};
               }) /
      1e3;

  // Objects: random legal operation sequences from each type's sample
  // operations; the value evolves as the sequence applies.
  const std::pair<const char*, const char*> kTypes[] = {
      {"objects.apply_ns.counter", "bounded-counter[-3,3]"},
      {"objects.apply_ns.register", "rw-register"},
      {"objects.apply_ns.fetch_add", "fetch&add"},
      {"objects.apply_ns.swap", "swap-register"},
      {"objects.apply_ns.test_and_set", "test&set"},
  };
  for (const auto& [metric, type_name] : kTypes) {
    const ObjectTypeEntry* entry = nullptr;
    for (const ObjectTypeEntry& e : object_type_registry()) {
      if (e.name == type_name) {
        entry = &e;
      }
    }
    if (entry == nullptr) {
      throw std::runtime_error(std::string("object type not registered: ") +
                               type_name);
    }
    const ObjectType& type = *entry->type;
    const std::vector<Op> menu = type.sample_ops();
    std::vector<Op> ops;
    for (std::size_t i = 0; i < 4096; ++i) {
      ops.push_back(menu[coin.below(menu.size())]);
    }
    m[metric] = probe_ns(tracer, root.id(), "objects", metric, [&]() -> Batch {
      Value value = type.initial_value();
      std::uint64_t acc = 0;
      const double t0 = now_s();
      for (const Op& op : ops) {
        acc += static_cast<std::uint64_t>(type.apply(op, value));
      }
      const double t1 = now_s();
      consume(acc);
      return {t1 - t0, ops.size()};
    });
  }

  // Protocols: the undecided processes of the samples (at most 4096).
  std::vector<std::pair<const Configuration*, ProcessId>> procs;
  for (const Configuration& s : samples) {
    for (ProcessId pid = 0; pid < s.num_processes() && procs.size() < 4096;
         ++pid) {
      if (!s.decided(pid)) {
        procs.emplace_back(&s, pid);
      }
    }
  }
  m["protocols.poised_ns"] =
      probe_ns(tracer, root.id(), "protocols", "poised", [&]() -> Batch {
        std::uint64_t acc = 0;
        const double t0 = now_s();
        for (const auto& [config, pid] : procs) {
          acc += config->process(pid).poised().object;
        }
        const double t1 = now_s();
        consume(acc);
        return {t1 - t0, procs.size()};
      });
  m["protocols.on_response_ns"] =
      probe_ns(tracer, root.id(), "protocols", "on_response", [&]() -> Batch {
        std::vector<std::unique_ptr<Process>> copies;
        std::vector<Value> responses;
        for (const auto& [config, pid] : procs) {
          const Process& p = config->process(pid);
          const Invocation inv = p.poised();
          Value response = 0;
          if (inv.object != kNoObject) {
            Value value = config->value(inv.object);
            response = config->space().type(inv.object).apply(inv.op, value);
          }
          copies.push_back(p.clone());
          responses.push_back(response);
        }
        const double t0 = now_s();
        for (std::size_t i = 0; i < copies.size(); ++i) {
          copies[i]->on_response(responses[i]);
        }
        return {now_s() - t0, copies.size()};
      });

  {
    const std::unique_ptr<SchedulePolicy> policy =
        make_policy(PolicyKind::kUniform);
    SplitMixCoin policy_coin(seed);
    policy->reset(samples.front(), policy_coin);
    m["policies.next_ns"] = probe_each(
        tracer, root.id(), "verify/adversary_policies", "next", samples,
        [&](const Configuration& s) {
          return policy->next(s, policy_coin).value_or(0);
        });
  }

  if (small) {
    const SymmetrySpec spec = inst.protocol->symmetry(n);
    SymmetryScratch scratch;
    m["symmetry.canonical_ns"] = probe_each(
        tracer, root.id(), "verify/symmetry", "canonical_fingerprint",
        samples, [&](const Configuration& s) {
          return canonical_fingerprint(s, spec, scratch).lo;
        });
    m["por.persistent_set_ns"] = probe_each(
        tracer, root.id(), "verify/por", "persistent_set", samples,
        [](const Configuration& s) { return persistent_set(s).size(); });
  }
}

// ---------------------------------------------------------------------
// explore-deep / explore-reduced.

struct ExploreSpec {
  const char* protocol;
  std::optional<std::size_t> param;
  const char* inputs;
  std::size_t depth;
  bool reduced;            ///< partial-order reduction and symmetry
  bool seeded_coins;       ///< coin seed follows --seed (else pinned)
  std::size_t warmup_depth;
  std::size_t pinned_states;
  std::size_t pinned_transitions;
  bool pinned_complete;
  bool capped_probe;       ///< traced run reruns under a memory budget
};

/// RAM-only budget of the traced run's capped store probe.
constexpr std::size_t kCappedBudget = std::size_t{128} << 20;

class ExploreWorkload final : public Workload {
 public:
  ExploreWorkload(const ExploreSpec& spec, std::uint64_t seed,
                  std::size_t threads)
      : spec_(spec), seed_(seed), threads_(threads) {}

  void setup() override {
    inst_.protocol = make_protocol(spec_.protocol, spec_.param);
    inst_.inputs = parse_bits(spec_.inputs);
    inst_.coin_seed = spec_.seeded_coins ? seed_ : kDefaultSeed;
    options_ = ExploreOptions{};
    options_.max_depth = spec_.depth;
    options_.seed = inst_.coin_seed;
    options_.reduction = spec_.reduced;
    options_.symmetry = spec_.reduced;
    ExploreOptions warm = options_;
    warm.max_depth = spec_.warmup_depth;
    warm.threads = threads_;
    consume(explore(*inst_.protocol, inst_.inputs, warm).states);
  }

  RepResult run(Tracer& tracer) override {
    RepResult rep;
    ExploreResult results[2];
    const std::size_t thread_counts[2] = {1, threads_};
    Interval* passes[2] = {&rep.single, &rep.threaded};
    for (int k = 0; k < 2; ++k) {
      ExploreOptions opt = options_;
      opt.threads = thread_counts[k];
      const Span span(tracer, "verify/explorer",
                      "explore threads=" + std::to_string(opt.threads));
      *passes[k] = timed(
          [&] { results[k] = explore(*inst_.protocol, inst_.inputs, opt); });
    }
    rep.attempted = 2;
    const bool pinned = !spec_.seeded_coins || seed_ == kDefaultSeed;
    for (int k = 0; k < 2; ++k) {
      const ExploreResult& r = results[k];
      std::string problem;
      if (!r.safe) {
        problem = "unsafe (" + r.violation_kind + ")";
      } else if (r.truncated) {
        problem = "truncated";
      } else if (pinned && (r.states != spec_.pinned_states ||
                            r.transitions != spec_.pinned_transitions ||
                            (spec_.pinned_complete && !r.complete))) {
        problem = "states/transitions/complete " + std::to_string(r.states) +
                  "/" + std::to_string(r.transitions) + "/" +
                  std::to_string(r.complete) + " differ from the pinned " +
                  std::to_string(spec_.pinned_states) + "/" +
                  std::to_string(spec_.pinned_transitions);
      } else if (k == 1 && !(results[0] == results[1])) {
        problem = "threaded result differs from the 1-thread result";
      }
      if (!problem.empty()) {
        ++rep.failed;
        rep.problems.push_back("pass threads=" +
                               std::to_string(thread_counts[k]) + ": " +
                               problem);
      }
    }
    rep.rate_wall = rep.threaded.wall;
    rep.states = static_cast<double>(results[1].states);
    rep.steps = static_cast<double>(results[1].transitions);
    rep.ops = 1;
    last_ = results[1];
    return rep;
  }

  [[nodiscard]] const Instance& instance() const override { return inst_; }

  void before_traced_reps(Tracer& tracer) override {
    if (!spec_.capped_probe) {
      return;
    }
    // First thing after set-up, so the process peak is this run's.
    ExploreOptions opt = options_;
    opt.threads = threads_;
    opt.max_resident_bytes = kCappedBudget;
    {
      const Span span(tracer, "verify/store",
                      "explore threads=" + std::to_string(threads_) +
                          " budget=128MiB");
      capped_wall_ = timed([&] {
                       capped_ = explore(*inst_.protocol, inst_.inputs, opt);
                     }).wall;
    }
    capped_peak_mib_ = peak_rss_mib();
  }

  void layer_metrics(RepResult& traced, Tracer& tracer, Metrics& m) override {
    const ExploreResult& r = last_;
    const double transitions = static_cast<double>(r.transitions);
    const double states = static_cast<double>(r.states);
    m["explorer.states"] = states;
    m["explorer.transitions"] = transitions;
    m["explorer.dedup_rate"] = ratio(static_cast<double>(r.dedup_hits),
                                     transitions);
    m["explorer.orbit_collapse"] =
        ratio(static_cast<double>(r.orbit_merges), transitions);
    m["explorer.bytes_per_state"] =
        ratio(static_cast<double>(r.total_bytes), states);
    m["state_set.bytes_per_entry"] =
        ratio(static_cast<double>(r.seen_bytes), states);
    probe_state_set(r, tracer, m);
    if (spec_.capped_probe) {
      m["store.capped_wall_ratio"] = ratio(capped_wall_, traced.threaded.wall);
      m["store.capped_peak_rss_mb"] = capped_peak_mib_;
      ++traced.attempted;
      if (capped_.states != r.states || capped_.transitions != r.transitions ||
          !capped_.safe || capped_.truncated) {
        ++traced.failed;
        traced.problems.push_back(
            "the 128 MiB capped exploration differs from the uncapped one");
      }
    }
    // Modelled, not measured: the share of the 1-thread pass's CPU time
    // that the per-call costs times the call counts do not explain.
    double per_transition = m["runtime.clone_ns"] + m["runtime.step_ns"] +
                            m["runtime.fingerprint_ns"] +
                            m["runtime.all_decided_ns"] +
                            m["state_set.claim_ns"];
    double per_state = m["runtime.memory_bytes_ns"];
    if (spec_.reduced) {
      per_transition += m["symmetry.canonical_ns"];
      per_state += m["por.persistent_set_ns"];
    }
    const double modelled_s =
        (transitions * per_transition + states * per_state) * 1e-9;
    m["explorer.unattributed_frac"] = 1.0 - ratio(modelled_s,
                                                  traced.single.cpu());
  }

 private:
  /// StateSet::claim at the exploration's final table size and dedup
  /// mix: the table is pre-filled with `states` final entries, then
  /// claimed with keys that hit an entry at the measured dedup rate.
  void probe_state_set(const ExploreResult& r, Tracer& tracer, Metrics& m) {
    const Span root(tracer, "verify/state_set", "claim probes");
    SplitMixCoin coin(seed_ ^ 0xC1A1ULL);
    StateSet set(64, options_.wide_fingerprint);
    std::vector<std::uint64_t> present(std::max<std::size_t>(r.states, 1));
    for (std::size_t i = 0; i < present.size(); ++i) {
      present[i] = coin.next();
      set.claim({present[i], 0}, StateSet::kTicketTag);
      set.assign({present[i], 0}, i);
    }
    const double hit_rate =
        ratio(static_cast<double>(r.dedup_hits),
              static_cast<double>(r.transitions));
    const auto make_batch = [&](std::size_t count) {
      std::vector<std::uint64_t> keys(count);
      for (std::uint64_t& key : keys) {
        const bool hit = static_cast<double>(coin.below(1'000'000)) <
                         hit_rate * 1e6;
        key = hit ? present[coin.below(present.size())] : coin.next();
      }
      return keys;
    };
    constexpr std::size_t kBatch = std::size_t{1} << 18;
    {
      const std::vector<std::uint64_t> keys = make_batch(kBatch);
      const Span span(tracer, "verify/state_set", "claim threads=1",
                      root.id());
      std::uint64_t acc = 0;
      const double t0 = now_s();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        acc += set.claim({keys[i], 0}, StateSet::kTicketTag | i);
      }
      m["state_set.claim_ns"] = (now_s() - t0) * 1e9 / kBatch;
      consume(acc);
    }
    std::vector<std::vector<std::uint64_t>> batches;
    for (std::size_t t = 0; t < threads_; ++t) {
      batches.push_back(make_batch(kBatch));
    }
    const Span span(tracer, "verify/state_set",
                    "claim threads=" + std::to_string(threads_), root.id());
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
          acc += set.claim({batches[t][i], 0}, StateSet::kTicketTag | i);
        }
        consume(acc);
      });
    }
    const double t0 = now_s();
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) {
      w.join();
    }
    // Thread-time per claim: equals claim_ns under perfect scaling.
    m["state_set.claim_ns_mt"] = (now_s() - t0) * 1e9 / kBatch;
  }

  ExploreSpec spec_;
  std::uint64_t seed_;
  std::size_t threads_;
  Instance inst_;
  ExploreOptions options_;
  ExploreResult last_;
  ExploreResult capped_;
  double capped_wall_ = 0;
  double capped_peak_mib_ = 0;
};

// ---------------------------------------------------------------------
// fuzz.

constexpr std::size_t kFuzzN = 8;
constexpr std::size_t kFuzzTrials = 50'000;

class FuzzWorkload final : public Workload {
 public:
  FuzzWorkload(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  void setup() override {
    inst_.protocol = make_protocol("faa-consensus", std::nullopt);
    inst_.inputs = alternating_inputs(kFuzzN);
    inst_.coin_seed = seed_;
    options_ = FuzzOptions{};
    options_.trials = kFuzzTrials;
    options_.max_steps = 8192;
    options_.seed = seed_;
    options_.policy = PolicyKind::kUniform;
    FuzzOptions warm = options_;
    warm.trials = kFuzzTrials;
    warm.threads = threads_;
    consume(fuzz(*inst_.protocol, inst_.inputs, warm).total_steps);
  }

  RepResult run(Tracer& tracer) override {
    RepResult rep;
    FuzzResult results[2];
    const std::size_t thread_counts[2] = {1, threads_};
    Interval* passes[2] = {&rep.single, &rep.threaded};
    for (int k = 0; k < 2; ++k) {
      FuzzOptions opt = options_;
      opt.threads = thread_counts[k];
      const Span span(tracer, "verify/fuzz",
                      "fuzz threads=" + std::to_string(opt.threads));
      *passes[k] =
          timed([&] { results[k] = fuzz(*inst_.protocol, inst_.inputs, opt); });
    }
    rep.attempted = 2 * kFuzzTrials;
    for (int k = 0; k < 2; ++k) {
      const FuzzResult& r = results[k];
      std::size_t failed = 0;
      if (r.violations != 0 || r.decided != r.trials) {
        failed = static_cast<std::size_t>(r.violations + r.trials - r.decided);
        rep.problems.push_back(
            "pass threads=" + std::to_string(thread_counts[k]) + ": " +
            std::to_string(r.violations) + " violations, " +
            std::to_string(r.decided) + "/" + std::to_string(r.trials) +
            " decided");
      }
      if (k == 1 && !(results[0] == results[1])) {
        failed = kFuzzTrials;
        rep.problems.push_back(
            "threaded result differs from the 1-thread result");
      }
      rep.failed += std::min(failed, kFuzzTrials);
    }
    rep.rate_wall = rep.threaded.wall;
    rep.states = static_cast<double>(results[1].total_steps);
    rep.steps = static_cast<double>(results[1].total_steps);
    rep.ops = static_cast<double>(results[1].trials);
    last_ = results[1];
    return rep;
  }

  [[nodiscard]] const Instance& instance() const override { return inst_; }

  void layer_metrics(RepResult& traced, Tracer& tracer,
                     Metrics& m) override {
    (void)traced;
    (void)tracer;
    m["fuzz.steps_per_trial"] = ratio(static_cast<double>(last_.total_steps),
                                      static_cast<double>(last_.schedules));
  }

 private:
  std::uint64_t seed_;
  std::size_t threads_;
  Instance inst_;
  FuzzOptions options_;
  FuzzResult last_;
};

// ---------------------------------------------------------------------
// attack.

struct AttackSpec {
  std::string prey;
  std::size_t r;
  bool general;  ///< Section 3.2 adversary; else the Section 3.1 clone one
  std::uint64_t seed;
  std::shared_ptr<const ConsensusProtocol> protocol;
};

/// What one attack produced; `digest` folds every step of the
/// constructed execution, so equal outcomes mean equal executions.
struct AttackOutcome {
  bool success = false;
  std::string failure;
  std::size_t steps = 0;
  std::size_t processes_used = 0;
  std::size_t pieces = 0;
  std::size_t rebuilds = 0;
  std::size_t clones = 0;
  bool inconsistent = false;
  std::uint64_t digest = 0;

  friend bool operator==(const AttackOutcome&, const AttackOutcome&) = default;
};

AttackOutcome summarize(const Trace& execution, AttackOutcome outcome) {
  outcome.steps = execution.size();
  outcome.inconsistent = execution.inconsistent();
  std::uint64_t h = 0;
  for (const Step& s : execution.steps()) {
    h = hash_combine(h, s.pid);
    h = hash_combine(h, s.inv.object);
    h = hash_combine(h, static_cast<std::uint64_t>(s.inv.op.kind));
    h = hash_combine(h, static_cast<std::uint64_t>(s.inv.op.arg0));
    h = hash_combine(h, static_cast<std::uint64_t>(s.response));
    h = hash_combine(h, s.decided ? 2 + static_cast<std::uint64_t>(*s.decided)
                                  : 0);
  }
  outcome.digest = h;
  return outcome;
}

/// Runs one attack; moves the execution into `keep` when non-null.
AttackOutcome run_attack(const AttackSpec& spec, Trace* keep) {
  AttackOutcome outcome;
  Trace execution;
  if (spec.general) {
    GeneralAdversary::Options opt;
    opt.seed = spec.seed;
    GeneralAttackResult r = GeneralAdversary(opt).attack(*spec.protocol);
    outcome.success = r.success;
    outcome.failure = r.failure;
    outcome.processes_used = r.processes_used;
    outcome.pieces = r.pieces_executed;
    outcome.rebuilds = r.rebuilds;
    execution = std::move(r.execution);
  } else {
    CloneAdversary::Options opt;
    opt.seed = spec.seed;
    AttackResult r = CloneAdversary(opt).attack(*spec.protocol);
    outcome.success = r.success;
    outcome.failure = r.failure;
    outcome.processes_used = r.processes_used;
    outcome.clones = r.clones_created;
    execution = std::move(r.execution);
  }
  outcome = summarize(execution, outcome);
  if (keep != nullptr) {
    *keep = std::move(execution);
  }
  return outcome;
}

// r = 100 for every prey but bidirectional-mixed: the general adversary
// fails on it from r = 14 up ("counting argument failed"), so it runs
// at r = 13, the largest r that passes, over several seeds.
constexpr std::size_t kAttackR = 100;
constexpr std::size_t kBidiMixedR = 13;
constexpr std::size_t kBidiMixedSeeds = 8;

class AttackWorkload final : public Workload {
 public:
  AttackWorkload(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  void setup() override {
    attacks_.clear();
    const auto add = [&](const char* prey, std::size_t r, bool general,
                         std::uint64_t seed) {
      attacks_.push_back({prey, r, general, seed, make_protocol(prey, r)});
    };
    add("historyless-mixed", kAttackR, true, seed_);
    add("historyless-swaps", kAttackR, true, seed_);
    add("conciliator", kAttackR, true, seed_);
    for (std::size_t i = 0; i < kBidiMixedSeeds; ++i) {
      add("bidirectional-mixed", kBidiMixedR, true, seed_ + i);
    }
    add("round-voting", kAttackR, false, seed_);
    add("bidirectional-voting", kAttackR, false, seed_);
    inst_.protocol = attacks_.front().protocol;
    inst_.inputs = alternating_inputs(general_adversary_processes(kAttackR));
    inst_.coin_seed = seed_;
    const AttackSpec warm{"historyless-mixed", 40, true, seed_,
                          make_protocol("historyless-mixed", 40)};
    consume(run_attack(warm, nullptr).steps);
  }

  RepResult run(Tracer& tracer) override {
    RepResult rep;
    const std::size_t count = attacks_.size();
    std::vector<AttackOutcome> serial(count);
    prey_seconds_.clear();
    audit_seconds_ = 0;
    {
      const Span pass(tracer, "core", "attacks threads=1");
      for (std::size_t i = 0; i < count; ++i) {
        const AttackSpec& a = attacks_[i];
        Trace execution;
        Interval iv;
        {
          const Span span(tracer, "core", attack_name(a), pass.id());
          iv = timed([&] { serial[i] = run_attack(a, &execution); });
        }
        rep.single += iv;
        prey_seconds_[a.prey] += iv.wall;
        const Span span(tracer, "verify/trace_audit", "audit " + a.prey,
                        pass.id());
        const double t0 = now_s();
        const TraceAudit audit = audit_trace(*a.protocol->make_space(2),
                                             execution);
        audit_seconds_ += now_s() - t0;
        if (!audit.ok) {
          serial[i].success = false;
          serial[i].failure = "audit: " + audit.detail;
        }
      }
    }
    std::vector<AttackOutcome> threaded(count);
    {
      const Span pass(tracer, "core",
                      "attacks threads=" + std::to_string(threads_));
      rep.threaded = timed([&] {
        parallel_trials(count, threads_, [&](std::size_t i) {
          const Span span(tracer, "core", attack_name(attacks_[i]),
                          pass.id());
          threaded[i] = run_attack(attacks_[i], nullptr);
        });
      });
    }
    rep.attempted = 2 * count;
    for (std::size_t i = 0; i < count; ++i) {
      const AttackSpec& a = attacks_[i];
      const AttackOutcome& o = serial[i];
      const std::size_t r = a.protocol->make_space(2)->size();
      const std::size_t bound = a.general ? general_adversary_processes(r)
                                          : clone_adversary_processes(r);
      std::string problem;
      if (!o.success) {
        problem = "failed: " + o.failure;
      } else if (!o.inconsistent) {
        problem = "execution does not decide both values";
      } else if (o.processes_used > bound) {
        problem = std::to_string(o.processes_used) + " processes used > " +
                  std::to_string(bound);
      }
      if (!problem.empty()) {
        rep.failed += 2;  // the threaded run of it is no better
        rep.problems.push_back(attack_name(a) + ": " + problem);
      } else if (!(threaded[i] == o)) {
        rep.failed += 1;
        rep.problems.push_back(attack_name(a) +
                               ": threaded outcome differs from serial");
      }
      rep.steps += static_cast<double>(o.steps);
    }
    rep.rate_wall = rep.single.wall;
    rep.states = rep.steps;
    rep.ops = static_cast<double>(count);
    last_ = serial;
    return rep;
  }

  [[nodiscard]] const Instance& instance() const override { return inst_; }

  void layer_metrics(RepResult& traced, Tracer& tracer,
                     Metrics& m) override {
    (void)traced;
    (void)tracer;
    for (const auto& [prey, seconds] : prey_seconds_) {
      m["core.attack_s." + prey] = seconds;
    }
    double pieces = 0;
    double rebuilds = 0;
    double used = 0;
    double clones = 0;
    for (const AttackOutcome& o : last_) {
      pieces += static_cast<double>(o.pieces);
      rebuilds += static_cast<double>(o.rebuilds);
      used += static_cast<double>(o.processes_used);
      clones += static_cast<double>(o.clones);
    }
    m["core.pieces"] = pieces;
    m["core.rebuilds"] = rebuilds;
    m["core.processes_used"] = used;
    m["core.clones_created"] = clones;
    m["audit.trace_ms"] = audit_seconds_ * 1e3;
  }

 private:
  static std::string attack_name(const AttackSpec& a) {
    return std::string(a.general ? "general" : "clone") + " " + a.prey +
           " r=" + std::to_string(a.r) + " seed=" + std::to_string(a.seed);
  }

  std::uint64_t seed_;
  std::size_t threads_;
  std::vector<AttackSpec> attacks_;
  Instance inst_;
  std::vector<AttackOutcome> last_;
  std::map<std::string, double> prey_seconds_;
  double audit_seconds_ = 0;
};

/// Calls `once` until another call is not expected to end within
/// `seconds` of the first; always calls it at least once.
template <typename Fn>
void repeat_for(std::uint64_t seconds, Fn once) {
  const double start = now_s();
  double calls = 0;
  double elapsed = 0;
  do {
    once();
    calls += 1;
    elapsed = now_s() - start;
  } while (elapsed * (calls + 1) / calls <= static_cast<double>(seconds));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t threads) {
  // counter-walk's state space at depth 12 is the same for every coin
  // seed, so its coins follow --seed.  The conciliator's ranges from 68k
  // to 1.8M states over seeds 1..20, so its instance is pinned to the
  // default seed and --seed only moves the per-call samples.
  if (name == "explore-deep") {
    const ExploreSpec spec{"counter-walk", std::nullopt, "010101", 12,
                           false, true, 8, 1'359'562, 3'318'780, false, true};
    return std::make_unique<ExploreWorkload>(spec, seed, threads);
  }
  if (name == "explore-reduced") {
    const ExploreSpec spec{"conciliator", 3, "000000", 64, true, false, 10,
                           273'477, 782'929, true, false};
    return std::make_unique<ExploreWorkload>(spec, seed, threads);
  }
  if (name == "fuzz") {
    return std::make_unique<FuzzWorkload>(seed, threads);
  }
  return std::make_unique<AttackWorkload>(seed, threads);
}

// ---------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

int run(const Args& args) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "randsync_perfbench: refusing to report from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "randsync_perfbench: assertions are enabled (the per-step "
               "hash_self_check would be measured); refusing to report\n");
  return 3;
#endif
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  const char* git = std::getenv("PERFBENCH_GIT_DESCRIBE");
  const std::string describe = git != nullptr && *git != '\0' ? git : "unknown";
  char meta[512];
  std::snprintf(meta, sizeof(meta),
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
                "\"trace\": %d, \"nproc\": %zu, \"threads\": %zu, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"git_describe\": \"%s\"",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seconds),
                args.trace ? 1 : 0, nproc, threads,
                json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
                json_escape(describe).c_str());
  std::printf("# randsync perfbench {%s}\n", meta);

  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, threads);
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupRounds; ++i) {
    const double t0 = now_s();
    workload->setup();
    setups.push_back(now_s() - t0);
  }

  Metrics m;
  std::vector<RepResult> reps;
  Tracer tracer(args.trace);
  const MetricDef* defs = kEndToEnd;
  std::size_t def_count = std::size(kEndToEnd);
  const auto med = [](const std::vector<RepResult>& of, auto fn) {
    std::vector<double> values;
    for (const RepResult& r : of) {
      values.push_back(fn(r));
    }
    return median(values);
  };
  const auto wall = [](const RepResult& r) {
    return r.single.wall + r.threaded.wall;
  };
  const auto cpu = [](const RepResult& r) {
    return r.single.cpu() + r.threaded.cpu();
  };
  if (!args.trace) {
    repeat_for(args.seconds, [&] {
      reps.push_back(workload->run(tracer));
      const RepResult& r = reps.back();
      std::printf("# rep %zu: single %.6f s (cpu %.6f), threaded %.6f s "
                  "(cpu %.6f), rate wall %.6f s\n",
                  reps.size(), r.single.wall, r.single.cpu(), r.threaded.wall,
                  r.threaded.cpu(), r.rate_wall);
    });
    m["setup_s"] = median(setups);
    m["wall_s"] = med(reps, wall);
    m["cpu_s"] = med(reps, cpu);
    m["peak_rss_mb"] = peak_rss_mib();
    m["states_per_s"] = med(
        reps, [](const RepResult& r) { return ratio(r.states, r.rate_wall); });
    m["speedup"] = med(reps, [](const RepResult& r) {
      return ratio(r.single.wall, r.threaded.wall);
    });
    m["trials_per_s"] = med(
        reps, [](const RepResult& r) { return ratio(r.ops, r.rate_wall); });
    m["steps_per_s"] = med(
        reps, [](const RepResult& r) { return ratio(r.steps, r.rate_wall); });
  } else {
    defs = kPerLayer;
    def_count = std::size(kPerLayer);
    workload->before_traced_reps(tracer);
    // Untraced and traced repetitions alternate, so both see the same
    // host; the traced ones feed the per-layer metrics.
    Tracer off(false);
    std::vector<RepResult> plain;
    repeat_for(args.seconds, [&] {
      plain.push_back(workload->run(off));
      reps.push_back(workload->run(tracer));
    });
    m["tracing.overhead_frac"] = ratio(med(reps, wall), med(plain, wall)) - 1;
    m["runtime.worker_util"] = med(reps, [&](const RepResult& r) {
      return ratio(r.threaded.cpu(),
                   r.threaded.wall * static_cast<double>(threads));
    });
    m["runtime.sys_frac"] = med(reps, [&](const RepResult& r) {
      return ratio(r.single.sys + r.threaded.sys, cpu(r));
    });
    probe_layers(workload->instance(), args.seed, tracer, m);
    workload->layer_metrics(reps.back(), tracer, m);
    reps.insert(reps.end(), plain.begin(), plain.end());
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& p : r.problems) {
      std::printf("# CHECK FAILED: %s\n", p.c_str());
    }
  }
  std::printf("# repetitions: %zu, operations attempted: %zu, failed: %zu\n",
              reps.size(), attempted, failed);
  print_table(defs, def_count, m);
  if (!args.trace) {
    std::printf("  %-36s %18.6f %s\n", "failed_frac",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                "ratio");
  }
  const std::string body = render_metrics(defs, def_count, m);
  if (args.trace) {
    const char* dir = std::getenv("PERFBENCH_TRACE_DIR");
    if (dir != nullptr && *dir != '\0') {
      const std::string path = std::string(dir) + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               ".trace.json";
      if (tracer.write(path, meta, body)) {
        std::printf("# trace written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "randsync_perfbench: cannot write %s\n",
                     path.c_str());
      }
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed, body.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "randsync_perfbench: %s\n", e.what());
    return 1;
  }
}
