// r2d_perfbench: the repo benchmark. One process, four pinned closed-loop
// workers driving the library's default r2d::TwoDStack<std::uint64_t>
// (EpochReclaimer + HeapAlloc) from op tapes generated from a seed before
// the clock starts. perfbench/README.md describes the workloads, every
// metric, and which layer metric should move which end-to-end metric.
//
//   r2d_perfbench --workload wide-k|tight-k|burst --seed N --seconds S
//                 --trace 0|1 [--break-push-every N]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (timed from here, around the calls into core/ and reclaim/, plus obs
// counter deltas). Every run drains the container and checks conservation,
// duplicates and the quality oracle's unknown labels; a violation exits 1
// without a result line. --break-push-every wraps the stack in one that
// drops a push in N, so the self-test can watch those checks fire.
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"  // fig2_config, two_d_params_for, write_provenance
#include "core/two_d_stack.hpp"
#include "harness/quality.hpp"
#include "obs/metrics.hpp"
#include "perfbench/host.hpp"
#include "util/affinity.hpp"

namespace perfbench {
namespace {

using r2d::core::OpStatus;
using r2d::core::TwoDParams;
using Clock = std::chrono::steady_clock;
using Label = std::uint64_t;
using Stack = r2d::TwoDStack<Label>;  // the defaults a user gets

constexpr unsigned kWorkers = 4;
constexpr std::uint64_t kPrefill = 32768;  // the paper's §4 setting
constexpr std::size_t kTapeLen = std::size_t{1} << 20;  // ops per worker
constexpr std::size_t kBurstRun = 64;  // burst: run of pushes, then of pops
constexpr unsigned kChunk = 256;       // ops per stop-flag check
constexpr unsigned kRounds = 4;        // fresh containers per run
constexpr unsigned kSetupReps = 25;    // timed setups per round
constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.25;
// Interference gate: slices with more steal, and slices, setups or quality
// passes with a lower worker CPU share, are discarded.
constexpr double kMaxSteal = 0.03;
constexpr double kMinCpuShare = 0.95;
constexpr double kQualityRetrySeconds = 10.0;  // per run
constexpr unsigned kQualityPasses = 2;         // per round
constexpr std::uint64_t kQualityOps = std::uint64_t{1} << 17;  // per worker
static_assert(kRounds * kQualityPasses * kQualityOps <= kTapeLen);
constexpr unsigned kSampleEvery = 32;  // traced run: time 1 op in N
constexpr std::size_t kSampleCap = std::size_t{1} << 20;  // per worker, kind
constexpr unsigned kSpanBatch = 64;    // isolated spans: calls per timing
constexpr unsigned kSpanBatches = 4000;
constexpr unsigned kLabelShift = 40;   // label = (worker + 1) << 40 | seq

// ---- seeded inputs --------------------------------------------------------

/// splitmix64's output function: the tape RNG and the label hash.
std::uint64_t finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() { return finalize(state += 0x9e3779b97f4a7c15ull); }
  std::uint64_t below(std::uint64_t n) {  // uniform in [0, n)
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
};

struct WorkloadSpec {
  std::string name;
  TwoDParams params;
  bool burst = false;
};

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  if (name == "wide-k" || name == "burst") {
    // Fig. 2's operating point at P = 4: width 16, depth 16, shift 8.
    const TwoDParams p = r2d::bench::two_d_params_for(
        r2d::bench::fig2_config("2D-stack", kWorkers));
    return WorkloadSpec{name, p, name == "burst"};
  }
  if (name == "tight-k") {
    return WorkloadSpec{name, TwoDParams::for_k(12, kWorkers), false};
  }
  return std::nullopt;
}

/// One worker's op sequence, 1 = push and 0 = pop, read cyclically. Every
/// tape holds as many pushes as pops, so laps never drift the size.
using Tape = std::vector<std::uint8_t>;

Tape make_tape(const WorkloadSpec& spec, std::uint64_t seed, unsigned worker) {
  Tape tape(kTapeLen);
  if (spec.burst) {
    // Runs of kBurstRun pushes, then kBurstRun pops. Workers start a quarter
    // period apart, so two push while two pop; the seed sets the common
    // phase. Phases drawn per worker made the rank error follow the draw
    // (38-67 across seeds); drawn run lengths made it wander between runs.
    constexpr std::size_t kPeriod = 2 * kBurstRun;
    SplitMix rng{seed * 0x2545f4914f6cdd1dull};
    const std::size_t phase =
        (rng.below(kPeriod) + worker * kPeriod / kWorkers) % kPeriod;
    for (std::size_t i = 0; i < kTapeLen; ++i) {
      tape[i] = ((i + phase) / kBurstRun) % 2 == 0 ? 1 : 0;
    }
    return tape;
  }
  // Bernoulli(0.5) conditioned on balance: a seeded shuffle of half
  // pushes, half pops.
  SplitMix rng{seed * 0x2545f4914f6cdd1dull + worker + 1};
  std::fill(tape.begin(), tape.begin() + kTapeLen / 2, std::uint8_t{1});
  for (std::size_t i = kTapeLen - 1; i > 0; --i) {
    std::swap(tape[i], tape[rng.below(i + 1)]);
  }
  return tape;
}

/// Deepest a worker can pull the size down between any two points of its
/// cyclic tape: the range of the running size change over one lap.
std::int64_t drawdown(const Tape& tape) {
  std::int64_t level = 0;
  std::int64_t lowest = 0;
  std::int64_t highest = 0;
  for (const std::uint8_t op : tape) {
    level += op != 0 ? 1 : -1;
    lowest = std::min(lowest, level);
    highest = std::max(highest, level);
  }
  return highest - lowest;
}

// ---- the container under test ---------------------------------------------

/// Self-test only: the default stack, except that one push in every
/// `every` is dropped while reporting kOk. The correctness checks must
/// reject it.
class DroppingStack {
 public:
  DroppingStack(const TwoDParams& params, std::uint64_t every)
      : inner_(params), every_(every) {}

  OpStatus try_push(Label value) {
    thread_local std::uint64_t pushes = 0;
    if (++pushes % every_ == 0) return OpStatus::kOk;
    return inner_.try_push(value);
  }
  std::optional<Label> pop() { return inner_.pop(); }

 private:
  Stack inner_;
  std::uint64_t every_;
};

/// What one worker put into and took out of the current container.
struct Ledger {
  Label base = 0;              ///< labels [base, base + pushes) went in
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t pop_hash = 0;  ///< sum of finalize(label) over pops
  std::uint64_t failed = 0;    ///< non-kOk pushes + empty pops
};

struct alignas(64) Worker {
  std::atomic<std::uint64_t> ops{0};  ///< published once per chunk
  std::size_t pos = 0;                ///< tape cursor, kept across phases
  Ledger ledger;
  std::vector<std::uint32_t> push_ns;  ///< traced run: sampled op times
  std::vector<std::uint32_t> pop_ns;
};

template <typename S>
inline void one_op(S& stack, bool push, Ledger& led) {
  if (push) {
    if (stack.try_push(led.base + led.pushes) == OpStatus::kOk) {
      ++led.pushes;
    } else {
      ++led.failed;
    }
  } else if (const std::optional<Label> v = stack.pop()) {
    ++led.pops;
    led.pop_hash += finalize(*v);
  } else {
    ++led.failed;  // the tapes never drain the prefill: empty is a failure
  }
}

/// Fixed team of pinned workers. start() runs a job on every worker;
/// stop_and_wait() raises the stop flag the job polls and joins the phase.
/// Each worker times its own share of a job in wall and CPU seconds, so a
/// phase in which the hypervisor or another process took a worker's core
/// shows as a CPU share below 1.
class Pool {
 public:
  using Job = std::function<void(unsigned)>;

  Pool() : sync_(kWorkers + 1) {
    threads_.reserve(kWorkers);
    for (unsigned t = 0; t < kWorkers; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
    }
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    if (running_) stop_and_wait_noexcept();
    quit_ = true;
    sync_.arrive_and_wait();
    for (std::thread& th : threads_) th.join();
  }

  void start(Job job) {
    job_ = std::move(job);
    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    sync_.arrive_and_wait();
  }
  void stop_and_wait() {
    stop_and_wait_noexcept();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }
  void run(Job job) {
    start(std::move(job));
    stop_and_wait();
  }

  const std::atomic<bool>& stop_flag() const { return stop_; }
  /// Lowest per-worker CPU seconds / wall seconds over the last job.
  double min_cpu_share() const {
    return *std::min_element(cpu_share_.begin(), cpu_share_.end());
  }
  /// Longest per-worker wall seconds over the last job: the job itself,
  /// without the barrier wake-ups around it.
  double max_job_seconds() const {
    return *std::max_element(job_s_.begin(), job_s_.end());
  }
  pthread_t handle(unsigned t) { return threads_[t].native_handle(); }
  bool pinned() const { return pinned_.load() == kWorkers; }

 private:
  void stop_and_wait_noexcept() {
    stop_.store(true, std::memory_order_relaxed);
    sync_.arrive_and_wait();
    running_ = false;
  }

  void loop(unsigned t) {
    if (r2d::util::pin_worker(t)) pinned_.fetch_add(1);
    for (;;) {
      sync_.arrive_and_wait();
      if (quit_) return;
      try {
        const Clock::time_point wall0 = Clock::now();
        const double cpu0 = thread_cpu_seconds(pthread_self());
        job_(t);
        const double wall =
            std::chrono::duration<double>(Clock::now() - wall0).count();
        job_s_[t] = wall;
        cpu_share_[t] =
            wall > 0.0 ? (thread_cpu_seconds(pthread_self()) - cpu0) / wall : 1.0;
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
      }
      sync_.arrive_and_wait();
    }
  }

  std::barrier<> sync_;
  Job job_;
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> pinned_{0};
  std::array<double, kWorkers> cpu_share_{};  // [t] written by worker t only
  std::array<double, kWorkers> job_s_{};      // [t] written by worker t only
  bool running_ = false;
  bool quit_ = false;
  std::mutex error_mutex_;
  std::exception_ptr error_;  // guarded by error_mutex_ while jobs run
  std::vector<std::thread> threads_;  // last: the threads use every member
};

// ---- the measured loop ----------------------------------------------------

template <bool kTraced, typename S>
void drive_tape(S& stack, const Tape& tape, Worker& w,
                const std::atomic<bool>& stop) {
  const std::uint8_t* ops = tape.data();
  Ledger led = w.ledger;
  std::size_t pos = w.pos;
  std::uint64_t done = w.ops.load(std::memory_order_relaxed);
  while (!stop.load(std::memory_order_relaxed)) {
    for (unsigned i = 0; i < kChunk; ++i) {
      const bool push = ops[pos] != 0;
      pos = (pos + 1) & (kTapeLen - 1);
      if constexpr (kTraced) {
        if (i % kSampleEvery == 0) {
          const Clock::time_point t0 = Clock::now();
          one_op(stack, push, led);
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count();
          std::vector<std::uint32_t>& into = push ? w.push_ns : w.pop_ns;
          if (into.size() < into.capacity()) {
            into.push_back(static_cast<std::uint32_t>(
                std::min<std::int64_t>(ns, UINT32_MAX)));
          }
          continue;
        }
      }
      one_op(stack, push, led);
    }
    done += kChunk;
    w.ops.store(done, std::memory_order_relaxed);
  }
  w.ledger = led;
  w.pos = pos;
}

template <typename S>
void prefill(S& stack, Ledger& led, std::uint64_t share) {
  for (std::uint64_t i = 0; i < share; ++i) {
    if (stack.try_push(led.base + led.pushes) != OpStatus::kOk) {
      throw std::runtime_error("prefill push failed");
    }
    ++led.pushes;
  }
}

Ledger fresh_ledger(unsigned worker) {
  Ledger led;
  led.base = static_cast<Label>(worker + 1) << kLabelShift;
  return led;
}

struct Slice {
  double seconds = 0.0;
  double mops = 0.0;
  double steal = 0.0;
  double cpu_share = 0.0;
  bool valid() const { return steal <= kMaxSteal && cpu_share >= kMinCpuShare; }
};

/// Timed slices, pooled over every round of a run. Each slice carries its
/// own steal and worker CPU share, so interfered slices are discarded, not
/// averaged in.
struct Slices {
  std::vector<Slice> all;

  std::size_t discarded() const {
    return static_cast<std::size_t>(std::count_if(
        all.begin(), all.end(), [](const Slice& s) { return !s.valid(); }));
  }
  bool degraded() const { return discarded() == all.size(); }
  /// Median Mop/s over valid slices; when degraded(), over the
  /// least-interfered quarter.
  double mops() const {
    std::vector<double> good;
    for (const Slice& s : all) {
      if (s.valid()) good.push_back(s.mops);
    }
    if (good.empty()) {
      std::vector<Slice> ranked = all;
      std::sort(ranked.begin(), ranked.end(), [](const Slice& a, const Slice& b) {
        return a.steal - a.cpu_share < b.steal - b.cpu_share;
      });
      ranked.resize(std::max<std::size_t>(1, ranked.size() / 4));
      for (const Slice& s : ranked) good.push_back(s.mops);
    }
    return median(std::move(good));
  }
  double mean(double Slice::*field) const {
    double sum = 0.0;
    for (const Slice& s : all) sum += s.*field;
    return all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  }
};

/// Run `job` on the workers for `seconds`, cut into kSliceSeconds slices.
void measure(Pool& pool, Worker* workers, const Pool::Job& job, double seconds,
             Slices& into) {
  struct Mark {
    Clock::time_point time;
    CpuTicks ticks;
    double cpu = 0.0;
    std::uint64_t ops = 0;
  };
  const auto mark = [&] {
    Mark m;
    m.time = Clock::now();
    m.ticks = read_cpu_ticks();
    for (unsigned t = 0; t < kWorkers; ++t) {
      m.cpu += thread_cpu_seconds(pool.handle(t));
      m.ops += workers[t].ops.load(std::memory_order_relaxed);
    }
    return m;
  };

  pool.start(job);
  const Mark first = mark();
  Mark prev = first;
  const long n = std::max(1L, std::lround(seconds / kSliceSeconds));
  for (long k = 1; k <= n; ++k) {
    std::this_thread::sleep_until(
        first.time + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(k * kSliceSeconds)));
    const Mark cur = mark();
    Slice s;
    s.seconds = std::chrono::duration<double>(cur.time - prev.time).count();
    s.mops = static_cast<double>(cur.ops - prev.ops) / 1e6 / s.seconds;
    s.steal = steal_share(prev.ticks, cur.ticks);
    s.cpu_share = (cur.cpu - prev.cpu) / (kWorkers * s.seconds);
    into.all.push_back(s);
    prev = cur;
  }
  pool.stop_and_wait();
}

// ---- correctness ----------------------------------------------------------

/// Drain `stack` single-threaded and check it against the ledgers:
/// prefill + pushes - pops == drained, no label drained twice, every
/// drained label was pushed, and the multiset hash of everything pushed
/// equals that of everything popped or drained (a label popped twice
/// while another went missing passes the counts but not the hash).
/// Returns "" when all hold, else what broke.
template <typename S>
std::string drain_and_check(S& stack, const std::vector<Ledger>& ledgers) {
  std::vector<Label> drained;
  while (const std::optional<Label> v = stack.pop()) drained.push_back(*v);

  std::int64_t expected = 0;
  std::uint64_t pushed_hash = 0;
  std::uint64_t taken_hash = 0;
  for (const Ledger& led : ledgers) {
    expected += static_cast<std::int64_t>(led.pushes) -
                static_cast<std::int64_t>(led.pops);
    for (std::uint64_t i = 0; i < led.pushes; ++i) {
      pushed_hash += finalize(led.base + i);
    }
    taken_hash += led.pop_hash;
  }
  std::ostringstream why;
  if (expected != static_cast<std::int64_t>(drained.size())) {
    why << "conservation: prefill + pushes - pops = " << expected
        << " but drained " << drained.size() << "; ";
  }
  std::sort(drained.begin(), drained.end());
  if (std::adjacent_find(drained.begin(), drained.end()) != drained.end()) {
    why << "duplicate label in the drained container; ";
  }
  std::uint64_t unknown = 0;
  for (const Label label : drained) {
    taken_hash += finalize(label);
    const std::uint64_t worker = (label >> kLabelShift) - 1;
    const std::uint64_t seq = label & ((std::uint64_t{1} << kLabelShift) - 1);
    if (worker >= ledgers.size() || seq >= ledgers[worker].pushes) ++unknown;
  }
  if (unknown != 0) why << unknown << " drained labels were never pushed; ";
  if (pushed_hash != taken_hash) {
    why << "label multiset: popped + drained differs from pushed "
           "(a label popped twice or lost); ";
  }
  return why.str();
}

struct Quality {
  double mean = 0.0;
  double max = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string violation;
  bool scored = false;  ///< rank error computed (the fields above it)
  bool clean = false;   ///< no worker lost its core during the pass
};

/// Rank-error pass: a fresh container, prefilled and driven over the same
/// tapes with harness/quality.hpp's ticket log: kQualityOps ops per
/// worker, starting at tape position `offset`. The container is always
/// drained and checked. The log is replayed only when no worker lost its
/// core during the pass, or when `must_score`: interference changes the
/// interleaving the oracle scores.
template <typename S, typename Make>
Quality quality_pass(Pool& pool, const Make& make,
                     const std::vector<Tape>& tapes, std::size_t offset,
                     bool must_score) {
  std::unique_ptr<S> stack = make();
  std::atomic<std::uint64_t> ticket{0};
  std::vector<std::vector<r2d::quality::Event>> logs(kWorkers);
  std::vector<Ledger> ledgers(kWorkers);
  pool.run([&](unsigned t) {
    Ledger& led = ledgers[t] = fresh_ledger(t);
    std::vector<r2d::quality::Event>& log = logs[t];
    const std::uint64_t share = kPrefill / kWorkers;
    log.reserve(share + kQualityOps);
    const auto push_logged = [&] {
      const Label label = led.base + led.pushes;
      log.push_back({ticket.fetch_add(1, std::memory_order_relaxed), label, true});
      if (stack->try_push(label) == OpStatus::kOk) {
        ++led.pushes;
        return true;
      }
      log.pop_back();  // not inserted: the replay must not see it live
      ++led.failed;
      return false;
    };
    for (std::uint64_t i = 0; i < share; ++i) {
      if (!push_logged()) throw std::runtime_error("prefill push failed");
    }
    const Tape& tape = tapes[t];
    for (std::uint64_t i = 0; i < kQualityOps; ++i) {
      if (tape[(offset + i) & (kTapeLen - 1)] != 0) {
        push_logged();
      } else if (const std::optional<Label> v = stack->pop()) {
        log.push_back({ticket.fetch_add(1, std::memory_order_relaxed), *v, false});
        ++led.pops;
        led.pop_hash += finalize(*v);
      } else {
        ++led.failed;
      }
    }
  });

  Quality q;
  q.clean = pool.min_cpu_share() >= kMinCpuShare;
  q.violation = drain_and_check(*stack, ledgers);
  for (const Ledger& led : ledgers) q.failed += led.failed;
  q.attempted = kWorkers * kQualityOps;
  if (!q.clean && !must_score) return q;

  q.scored = true;
  std::vector<r2d::quality::Event> events;
  for (auto& log : logs) {
    events.insert(events.end(), log.begin(), log.end());
    log = {};
  }
  const r2d::quality::ReplayResult r =
      r2d::quality::replay(std::move(events), r2d::quality::Order::kLifo);
  q.mean = r.errors.mean();
  q.max = r.errors.max();
  q.samples = r.errors.count();
  if (r.unknown_labels != 0) {
    q.violation += "quality oracle saw " + std::to_string(r.unknown_labels) +
                   " unknown labels; ";
  }
  return q;
}

// ---- isolated spans (traced run) ------------------------------------------

struct Spans {
  double pin_ns = 0.0;
  double acquire_ns = 0.0;
  double release_ns = 0.0;
};

/// Keep a pointer observable so new/delete pairs are not folded away.
inline void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Batches of kSpanBatch calls on benchmark-owned reclaim objects, timed on
/// the same pinned workers: EpochReclaimer::pin() + guard release, and
/// HeapAlloc acquire and release of the stack's node type. Per-call ns is
/// the median over batches.
Spans measure_spans(Pool& pool) {
  using Reclaimer = Stack::reclaimer_type;
  using Alloc = Stack::allocator_type;
  Reclaimer reclaimer;
  std::vector<std::vector<double>> pin(kWorkers), acq(kWorkers), rel(kWorkers);
  pool.run([&](unsigned t) {
    Alloc alloc;
    std::array<r2d::core::StackNode<Label>*, kSpanBatch> nodes{};
    const auto per_call = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::nano>(b - a).count() / kSpanBatch;
    };
    for (unsigned b = 0; b < kSpanBatches; ++b) {
      Clock::time_point t0 = Clock::now();
      for (unsigned i = 0; i < kSpanBatch; ++i) {
        auto guard = reclaimer.pin();
        escape(&guard);
      }
      Clock::time_point t1 = Clock::now();
      pin[t].push_back(per_call(t0, t1));

      t0 = Clock::now();
      for (unsigned i = 0; i < kSpanBatch; ++i) {
        nodes[i] = alloc.acquire(nullptr, Label{i});
        escape(nodes[i]);
      }
      t1 = Clock::now();
      acq[t].push_back(per_call(t0, t1));

      t0 = Clock::now();
      for (unsigned i = 0; i < kSpanBatch; ++i) alloc.release(nodes[i]);
      t1 = Clock::now();
      rel[t].push_back(per_call(t0, t1));
    }
  });
  const auto pooled = [](const std::vector<std::vector<double>>& per) {
    std::vector<double> all;
    for (const auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return median(std::move(all));
  };
  return Spans{pooled(pin), pooled(acq), pooled(rel)};
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << "  " << std::left << std::setw(38) << m.name << " "
              << std::setw(16) << number(m.value) << " " << m.unit << "\n";
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << ms[i].name << "\": {\"value\": "
       << number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::uint64_t break_every = 0;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0.0 && o.seconds <= 120.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      o.trace = val == "1";
    } else if (key == "--break-push-every") {
      o.break_every = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || o.break_every == 0) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return o;
}


// ---- one run --------------------------------------------------------------

/// One timed setup: construction, then the prefill up to the start
/// barrier, taken as the slowest worker's share. The barrier wake-ups
/// around it are left out: they time the OS scheduler, not the library.
struct Setup {
  double total = 0.0;
  double construct = 0.0;
  double prefill = 0.0;
  bool clean = true;  ///< no worker lost its core meanwhile
};

/// Median of one field over the clean setups (over all, if none is).
double setup_median(const std::vector<Setup>& setups, double Setup::*field) {
  std::vector<double> clean, all;
  for (const Setup& s : setups) {
    all.push_back(s.*field);
    if (s.clean) clean.push_back(s.*field);
  }
  return median(clean.empty() ? all : clean);
}

/// What a run pools over its rounds.
struct Totals {
  std::vector<Setup> setups;
  Slices plain;   ///< untraced timed slices
  Slices traced;  ///< traced timed slices (--trace 1)
  std::vector<double> rank_means;  ///< one per scored quality pass
  unsigned quality_discarded = 0;
  double quality_retry_s = 0.0;  ///< spent on discarded quality passes
  unsigned quality_forced = 0;   ///< interfered passes scored anyway
  double rank_max = 0.0;
  std::uint64_t rank_samples = 0;
  r2d::obs::Snapshot counters;  ///< obs deltas over the traced regions
  std::uint64_t minflt = 0;     ///< minor faults over the traced regions
  std::vector<std::uint32_t> push_ns, pop_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string violation;
};

/// One round: kSetupReps timed setups (the last container built is the
/// one measured), an untimed warm-up, the timed region(s), the drain
/// check, and a quality pass of its own over the next stretch of tape.
template <typename S, typename Make>
void run_round(const Options& opt, unsigned round, const Make& make,
               const std::vector<Tape>& tapes, Pool& pool, Worker* workers,
               Totals& tot) {
  std::unique_ptr<S> stack;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    for (unsigned t = 0; t < kWorkers; ++t) workers[t].ledger = fresh_ledger(t);
    const Clock::time_point t0 = Clock::now();
    stack = make();
    const double construct =
        std::chrono::duration<double>(Clock::now() - t0).count();
    pool.run([&](unsigned t) {
      prefill(*stack, workers[t].ledger, kPrefill / kWorkers);
    });
    const double fill = pool.max_job_seconds();
    // A worker that lost its core during the prefill spoils the rep.
    tot.setups.push_back({construct + fill, construct, fill,
                          pool.min_cpu_share() >= kMinCpuShare});
  }

  const Pool::Job untraced = [&](unsigned t) {
    drive_tape<false>(*stack, tapes[t], workers[t], pool.stop_flag());
  };
  const Pool::Job traced = [&](unsigned t) {
    drive_tape<true>(*stack, tapes[t], workers[t], pool.stop_flag());
  };

  pool.start(untraced);  // warm-up, not timed
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  pool.stop_and_wait();

  const auto tally = [&](std::uint64_t& ops, std::uint64_t& failed) {
    ops = failed = 0;
    for (unsigned t = 0; t < kWorkers; ++t) {
      ops += workers[t].ops.load(std::memory_order_relaxed);
      failed += workers[t].ledger.failed;
    }
  };
  std::uint64_t ops_before = 0;
  std::uint64_t failed_before = 0;
  tally(ops_before, failed_before);

  // The traced run splits each round between an untraced and a traced
  // region, so the tracing overhead reads off one process.
  const double share = opt.seconds / kRounds;
  measure(pool, workers, untraced, opt.trace ? share / 2 : share, tot.plain);
  if (opt.trace) {
    for (unsigned t = 0; t < kWorkers; ++t) {
      workers[t].push_ns.reserve(kSampleCap);
      workers[t].pop_ns.reserve(kSampleCap);
    }
    const r2d::obs::Snapshot before = r2d::obs::metrics().snapshot();
    const std::uint64_t faults_before = minor_faults();
    measure(pool, workers, traced, share / 2, tot.traced);
    tot.minflt += minor_faults() - faults_before;
    const r2d::obs::Snapshot delta = r2d::obs::metrics().snapshot() - before;
    for (unsigned i = 0; i < r2d::obs::kCounterCount; ++i) {
      tot.counters.c[i] += delta.c[i];
    }
    for (unsigned t = 0; t < kWorkers; ++t) {
      Worker& w = workers[t];
      tot.push_ns.insert(tot.push_ns.end(), w.push_ns.begin(), w.push_ns.end());
      tot.pop_ns.insert(tot.pop_ns.end(), w.pop_ns.begin(), w.pop_ns.end());
      w.push_ns = {};
      w.pop_ns = {};
    }
  }

  std::uint64_t ops_after = 0;
  std::uint64_t failed_after = 0;
  tally(ops_after, failed_after);
  tot.attempted += ops_after - ops_before;
  tot.failed += failed_after - failed_before;

  std::vector<Ledger> ledgers;
  for (unsigned t = 0; t < kWorkers; ++t) ledgers.push_back(workers[t].ledger);
  tot.violation += drain_and_check(*stack, ledgers);
  stack.reset();

  // Short passes, each over its own stretch of tape. An interfered pass is
  // checked, counted, and re-run over the same stretch, until the run's
  // retry budget is spent.
  for (unsigned pass = 0; pass < kQualityPasses; ++pass) {
    const std::size_t offset = (round * kQualityPasses + pass) * kQualityOps;
    Quality q;
    for (;;) {
      const Clock::time_point t0 = Clock::now();
      const bool must_score = tot.quality_retry_s >= kQualityRetrySeconds;
      q = quality_pass<S>(pool, make, tapes, offset, must_score);
      tot.violation += q.violation;
      tot.attempted += q.attempted;
      tot.failed += q.failed;
      if (q.scored) break;
      ++tot.quality_discarded;  // interfered: not scored
      tot.quality_retry_s +=
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
    tot.rank_means.push_back(q.mean);
    if (!q.clean) ++tot.quality_forced;
    tot.rank_max = std::max(tot.rank_max, q.max);
    tot.rank_samples += q.samples;
  }
}

template <typename S, typename Make>
int run(const Options& opt, const WorkloadSpec& spec, const Make& make) {
  std::vector<Tape> tapes;
  std::int64_t headroom = static_cast<std::int64_t>(kPrefill);
  for (unsigned t = 0; t < kWorkers; ++t) {
    tapes.push_back(make_tape(spec, opt.seed, t));
    headroom -= drawdown(tapes.back());
  }
  if (headroom <= 0) {
    std::cerr << "perfbench: seed " << opt.seed
              << " gives tapes that could drain the prefill\n";
    return 2;
  }

  Pool pool;
  auto workers = std::make_unique<Worker[]>(kWorkers);
  Totals tot;
  for (unsigned round = 0; round < kRounds; ++round) {
    run_round<S>(opt, round, make, tapes, pool, workers.get(), tot);
  }
  Spans spans;
  if (opt.trace) spans = measure_spans(pool);

  if (!tot.violation.empty()) {
    std::cerr << "perfbench: correctness violation on " << spec.name
              << " seed " << opt.seed << ": " << tot.violation << "\n";
    return 1;
  }

  const double mops = tot.plain.mops();
  const double failed_share = ratio(static_cast<double>(tot.failed),
                                    static_cast<double>(tot.attempted));
  const Slices& gated = opt.trace ? tot.traced : tot.plain;

  std::cout << "perfbench " << spec.name << ": seed " << opt.seed << ", "
            << kWorkers << " workers"
            << (pool.pinned() ? " pinned" : " (pinning failed)") << ", width "
            << spec.params.width << " depth " << spec.params.depth << " shift "
            << spec.params.shift << " (k_bound " << spec.params.k_bound()
            << "), prefill " << kPrefill << ", " << kRounds << " rounds\n";
  std::cout << "  steal gate: " << tot.plain.discarded() + tot.traced.discarded()
            << " of " << tot.plain.all.size() + tot.traced.all.size()
            << " slices of " << kSliceSeconds << " s discarded (steal > "
            << kMaxSteal << " or worker CPU share < " << kMinCpuShare << ")"
            << (tot.plain.degraded()
                    ? "; NO valid slice, reporting the least-interfered quarter"
                    : "")
            << "\n";
  const std::size_t setups_discarded = static_cast<std::size_t>(
      std::count_if(tot.setups.begin(), tot.setups.end(),
                    [](const Setup& s) { return !s.clean; }));
  std::cout << "  interference: " << setups_discarded << " of "
            << tot.setups.size() << " setups and " << tot.quality_discarded
            << " quality passes discarded (a worker's CPU share < "
            << kMinCpuShare << ")"
            << (tot.quality_forced != 0
                    ? "; retry budget spent, " +
                          std::to_string(tot.quality_forced) +
                          " interfered passes scored"
                    : std::string())
            << "\n";
  std::cout << "  quality passes: " << tot.rank_samples
            << " pops, max rank error " << tot.rank_max
            << " (not a Theorem 1 check; see README)\n";

  std::vector<Metric> out;
  if (!opt.trace) {
    out = {{"throughput_mops", mops, "Mop/s"},
           {"rank_error_mean", median(tot.rank_means), "items"},
           {"setup_s", setup_median(tot.setups, &Setup::total), "s"}};
  } else {
    const double traced_mops = tot.traced.mops();
    const r2d::obs::Snapshot& c = tot.counters;
    const double ops = static_cast<double>(c.ops());
    using C = r2d::obs::Counter;
    const auto n = [&](C id) { return static_cast<double>(c[id]); };
    out = {
        {"core.push.p50_ns", grouped_quantile(tot.push_ns, 0.50), "ns"},
        {"core.push.p99_ns", grouped_quantile(tot.push_ns, 0.99), "ns"},
        {"core.pop.p50_ns", grouped_quantile(tot.pop_ns, 0.50), "ns"},
        {"core.pop.p99_ns", grouped_quantile(tot.pop_ns, 0.99), "ns"},
        {"setup.construct_s", setup_median(tot.setups, &Setup::construct), "s"},
        {"setup.prefill_s", setup_median(tot.setups, &Setup::prefill), "s"},
        {"core.window.fast_hit_ratio", ratio(n(C::kFastHits), ops), "ratio"},
        {"core.window.probes_per_op", ratio(ops + n(C::kProbes), ops), "1/op"},
        {"core.window.hops_per_op", c.hops_per_op(), "1/op"},
        {"core.window.cert_fail_rate", c.cert_fail_rate(), "ratio"},
        {"core.window.shift_attempts_per_kop",
         1e3 * ratio(n(C::kShiftAttempts), ops), "1/kop"},
        {"core.window.shift_race_rate", c.shift_race_rate(), "ratio"},
        {"reclaim.epoch.pins_per_op", ratio(n(C::kEpochPins), ops), "1/op"},
        {"reclaim.epoch.advances_per_kop",
         1e3 * ratio(n(C::kEpochAdvances), ops), "1/kop"},
        {"reclaim.epoch.advance_ratio",
         ratio(n(C::kEpochAdvances), n(C::kEpochAdvanceTries)), "ratio"},
        {"reclaim.epoch.pin_ns", spans.pin_ns, "ns"},
        {"reclaim.alloc.acquire_ns", spans.acquire_ns, "ns"},
        {"reclaim.alloc.release_ns", spans.release_ns, "ns"},
        {"reclaim.alloc.minflt_per_mop",
         ratio(static_cast<double>(tot.minflt), ops / 1e6), "1/Mop"},
        {"reclaim.alloc.depot_ops_per_kop",
         1e3 * ratio(n(C::kMagFlushes) + n(C::kMagRefills), ops), "1/kop"},
        {"host.steal_share", gated.mean(&Slice::steal), "ratio"},
        {"host.worker_cpu_share", gated.mean(&Slice::cpu_share), "ratio"},
        {"host.slices_discarded",
         static_cast<double>(tot.plain.discarded() + tot.traced.discarded()),
         "count"},
        {"trace.throughput_mops", traced_mops, "Mop/s"},
        {"trace.untraced_throughput_mops", mops, "Mop/s"},
        {"trace.overhead_share", 1.0 - ratio(traced_mops, mops), "ratio"},
    };
  }
  print_metrics(out);
  print_metrics({{"failed_op_share", failed_share, "share"}});

  // The record: provenance (git sha, host cores, build flags) + this run.
  std::cout << "{\n";
  r2d::bench::write_provenance(std::cout, "perfbench");
  std::cout << "  \"workload\": \"" << spec.name << "\",\n"
            << "  \"seed\": " << opt.seed << ",\n"
            << "  \"seconds\": " << number(opt.seconds) << ",\n"
            << "  \"trace\": " << (opt.trace ? 1 : 0) << ",\n"
            << "  \"slices\": " << tot.plain.all.size() + tot.traced.all.size()
            << ",\n"
            << "  \"slices_discarded\": "
            << tot.plain.discarded() + tot.traced.discarded() << ",\n"
            << "  \"setups_discarded\": " << setups_discarded << ",\n"
            << "  \"quality_passes_discarded\": " << tot.quality_discarded
            << ",\n"
            << "  \"quality_passes_forced\": " << tot.quality_forced << ",\n"
            << "  \"steal_share\": " << number(gated.mean(&Slice::steal))
            << ",\n"
            << "  \"failed_op_share\": " << number(failed_share) << ",\n"
            << "  \"metrics\": " << metrics_json(out) << "\n}\n";

  std::cout << "{\"correct\": true, \"attempted\": " << tot.attempted
            << ", \"failed\": " << tot.failed
            << ", \"metrics\": " << metrics_json(out) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Options> opt = parse(argc, argv);
  const std::optional<WorkloadSpec> spec =
      opt ? find_workload(opt->workload) : std::nullopt;
  if (!opt || !spec) {
    std::cerr << "usage: r2d_perfbench --workload wide-k|tight-k|burst "
                 "--seed N --seconds S --trace 0|1 [--break-push-every N]\n";
    return 2;
  }
  try {
    if (opt->break_every != 0) {
      return run<DroppingStack>(*opt, *spec, [&] {
        return std::make_unique<DroppingStack>(spec->params, opt->break_every);
      });
    }
    return run<Stack>(*opt, *spec,
                      [&] { return std::make_unique<Stack>(spec->params); });
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
