#include "ptilu/sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "ptilu/sim/conformance.hpp"
#include "ptilu/sim/metrics.hpp"
#include "ptilu/sim/trace.hpp"

namespace ptilu::sim {

namespace {

template <typename T>
std::vector<T> decode(const Message& m) {
  const std::span<const T> data = m.as<T>();
  return {data.begin(), data.end()};
}

template <typename T>
void send_copy(RankContext& ctx, int to, int tag, const std::vector<T>& data) {
  const std::span<T> payload = ctx.send_in_place<T>(to, tag, data.size());
  std::copy(data.begin(), data.end(), payload.begin());
}

/// Smallest arena chunk: enough for the typical superstep of one sender.
constexpr std::size_t kMinArenaChunk = 1024;
/// An arena keeps up to this much memory however little a superstep sends;
/// a larger one is given back once a superstep fills under a quarter of it.
constexpr std::size_t kKeptArena = std::size_t{4} << 10;

/// Rank whose body is executing on this thread, -1 outside a step. Backs
/// the cross-rank-write asserts in the charge paths: a rank body must only
/// ever touch its own machine slots, on either backend.
thread_local int tl_current_rank = -1;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

struct RankGuard {
  explicit RankGuard(int rank) { tl_current_rank = rank; }
  ~RankGuard() { tl_current_rank = -1; }
  RankGuard(const RankGuard&) = delete;
  RankGuard& operator=(const RankGuard&) = delete;
};

std::string lowercase(std::string_view s) {
  std::string lower;
  lower.reserve(s.size());
  for (const char c : s) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return lower;
}

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kSequential: return "sequential";
    case Backend::kThreads: return "threads";
  }
  return "?";
}

Backend parse_backend(std::string_view name) {
  const std::string lower = lowercase(name);
  if (lower.empty() || lower == "seq" || lower == "sequential" || lower == "serial") {
    return Backend::kSequential;
  }
  if (lower == "threads" || lower == "thread" || lower == "threaded") {
    return Backend::kThreads;
  }
  PTILU_CHECK(false, "unknown execution backend '" << name
                     << "' (expected sequential|threads)");
}

Backend backend_from_env() {
  const char* value = std::getenv("PTILU_BACKEND");
  return value == nullptr ? Backend::kSequential : parse_backend(value);
}

int backend_threads_from_env() {
  const char* value = std::getenv("PTILU_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  const int n = std::atoi(value);  // NOLINT(cert-err34-c) 0/garbage falls back to auto
  return n > 0 ? n : 0;
}

/// Persistent worker pool for Backend::kThreads. Ranks are claimed from a
/// shared atomic counter, so any number of ranks runs on any number of
/// workers; run() blocks until every task of the current generation has
/// finished. Task functions must not throw (the machine wraps rank bodies
/// and captures exceptions per rank).
class Machine::WorkerPool {
 public:
  explicit WorkerPool(int nthreads) {
    threads_.reserve(static_cast<std::size_t>(nthreads));
    for (int i = 0; i < nthreads; ++i) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  void run(int ntasks, FunctionRef<void(int)> fn) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &fn;
    ntasks_ = ntasks;
    next_.store(0, std::memory_order_relaxed);
    idle_ = 0;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return idle_ == static_cast<int>(threads_.size()); });
    job_ = nullptr;
  }

 private:
  void worker_main() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      const FunctionRef<void(int)>* job = job_;
      const int ntasks = ntasks_;
      lock.unlock();
      while (true) {
        const int task = next_.fetch_add(1, std::memory_order_relaxed);
        if (task >= ntasks) break;
        (*job)(task);
      }
      lock.lock();
      ++idle_;
      if (idle_ == static_cast<int>(threads_.size())) done_cv_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const FunctionRef<void(int)>* job_ = nullptr;
  int ntasks_ = 0;
  int idle_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::atomic<int> next_{0};
};

int RankContext::nranks() const { return machine_->nranks(); }

int RankContext::lane() const {
  return machine_->backend() == Backend::kThreads ? rank_ : 0;
}

void RankContext::charge_flops(std::uint64_t n) { machine_->charge_flops(rank_, n); }
void RankContext::charge_mem(std::uint64_t n) { machine_->charge_mem(rank_, n); }

std::byte* RankContext::post(int to, int tag, std::size_t bytes) {
  return machine_->post(rank_, to, tag, bytes);
}

void RankContext::send_indices(int to, int tag, const IdxVec& data) {
  send_copy(*this, to, tag, data);
}

void RankContext::send_reals(int to, int tag, const RealVec& data) {
  send_copy(*this, to, tag, data);
}

std::span<const Message> RankContext::recv_all() {
  PTILU_ASSERT(tl_current_rank == -1 || tl_current_rank == rank_,
               "rank " << tl_current_rank << " drained rank " << rank_ << "'s inbox");
  if (machine_->checker_ != nullptr) machine_->checker_->on_recv_all(rank_);
  // Only this rank's box is touched, so concurrent drains from the worker
  // pool are safe; delivered_ itself changes only at the barrier. Only
  // boxes with messages are marked drained, so the next delivery clears
  // every mark through its list of touched destinations.
  Machine::Box& box = machine_->boxes_[static_cast<std::size_t>(rank_)];
  if (box.drained || box.count == 0) return {};
  box.drained = true;
  return {machine_->delivered_.data() + box.begin, box.count};
}

void RankContext::declare_collective(CollectiveOp op, std::uint64_t bytes,
                                     std::string_view site) {
  if (machine_->checker_ != nullptr) {
    machine_->checker_->declare_collective(rank_, op, bytes, site);
  }
}

IdxVec decode_indices(const Message& m) { return decode<idx>(m); }
RealVec decode_reals(const Message& m) { return decode<real>(m); }

std::byte* Machine::Arena::append(std::size_t bytes) {
  std::size_t at = (used_ + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
  if (chunks_.empty() || at + bytes > chunks_.back().cap) {
    const std::size_t doubled = chunks_.empty() ? 0 : 2 * chunks_.back().cap;
    const std::size_t cap = std::max({kMinArenaChunk, bytes, doubled});
    if (!chunks_.empty()) earlier_ += used_;
    chunks_.push_back({std::make_unique_for_overwrite<std::byte[]>(cap), cap});
    at = 0;
  }
  used_ = at + bytes;
  return chunks_.back().data.get() + at;
}

void Machine::Arena::clear() {
  const std::size_t held = earlier_ + used_;
  if (chunks_.size() == 1 && chunks_[0].cap > kKeptArena && 4 * held < chunks_[0].cap) {
    chunks_.clear();  // a burst is over: give its memory back
  } else if (chunks_.size() > 1) {
    const std::size_t cap = std::max(held, kMinArenaChunk);
    chunks_.clear();
    chunks_.push_back({std::make_unique_for_overwrite<std::byte[]>(cap), cap});
  }
  used_ = 0;
  earlier_ = 0;
}

void Machine::Arena::truncate(const Mark& mark) {
  chunks_.resize(mark.chunks);
  used_ = mark.used;
  earlier_ = mark.earlier;
}

Machine::Machine(int nranks, MachineParams params)
    : Machine(nranks, Options{.params = params}) {}

Machine::Machine(int nranks, const Options& options)
    : nranks_(nranks),
      params_(options.params),
      backend_(options.backend),
      threads_option_(options.threads),
      clock_(nranks, 0.0),
      counters_(nranks),
      arenas_(static_cast<std::size_t>(nranks)),
      staged_(static_cast<std::size_t>(nranks)),
      boxes_(static_cast<std::size_t>(nranks)) {
  PTILU_CHECK(nranks >= 1, "machine needs at least one rank");
  if (options.check) {
    checker_ = std::make_unique<Conformance>(nranks, options.transcript_tail);
  }
  if (options.metrics) {
    metrics_ = std::make_unique<Metrics>(nranks);
  }
}

Machine::~Machine() = default;

int Machine::resolved_pool_size() const {
  int n = threads_option_;
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(n, 1, nranks_);
}

void Machine::attach_trace(Trace* trace) {
  trace_ = trace;
  if (trace_ != nullptr) trace_->set_nranks(nranks_);
}

void Machine::charge_flops(int rank, std::uint64_t n) {
  PTILU_ASSERT(tl_current_rank == -1 || tl_current_rank == rank,
               "rank " << tl_current_rank << " charged flops to rank " << rank);
  counters_[rank].flops += n;
  const double cost = static_cast<double>(n) * params_.flop;
  if (trace_ != nullptr) {
    if (trace_deferred_) {
      pending_trace_[rank].push_back(
          PendingSpan{clock_[rank], clock_[rank] + cost, n, 0, 0, SpanKind::kCompute});
    } else {
      trace_->record(rank, SpanKind::kCompute, clock_[rank], clock_[rank] + cost, n, 0, 0);
    }
  }
  clock_[rank] += cost;
}

void Machine::charge_mem(int rank, std::uint64_t n) {
  PTILU_ASSERT(tl_current_rank == -1 || tl_current_rank == rank,
               "rank " << tl_current_rank << " charged memory to rank " << rank);
  counters_[rank].mem_bytes += n;
  const double cost = static_cast<double>(n) * params_.mem;
  if (trace_ != nullptr) {
    if (trace_deferred_) {
      pending_trace_[rank].push_back(
          PendingSpan{clock_[rank], clock_[rank] + cost, 0, n, 0, SpanKind::kCompute});
    } else {
      trace_->record(rank, SpanKind::kCompute, clock_[rank], clock_[rank] + cost, 0, n, 0);
    }
  }
  clock_[rank] += cost;
}

std::byte* Machine::post(int from, int to, int tag, std::size_t bytes) {
  PTILU_ASSERT(tl_current_rank == -1 || tl_current_rank == from,
               "rank " << tl_current_rank << " posted a message as rank " << from);
  // The checker validates the destination first: its report names the call
  // site and dumps the protocol transcript, where the bare check below can
  // only name the rank.
  if (checker_ != nullptr) checker_->on_send(from, to, tag, bytes);
  PTILU_CHECK(to >= 0 && to < nranks_, "send to invalid rank " << to);
  counters_[from].messages_sent += 1;
  counters_[from].bytes_sent += bytes;
  // Sender pays latency plus per-byte injection cost.
  const double cost = params_.alpha + static_cast<double>(bytes) * params_.beta;
  if (trace_ != nullptr) {
    if (trace_deferred_) {
      pending_trace_[from].push_back(
          PendingSpan{clock_[from], clock_[from] + cost, 0, bytes, 1, SpanKind::kSend});
    } else {
      trace_->record(from, SpanKind::kSend, clock_[from], clock_[from] + cost, 0, bytes, 1);
    }
  }
  clock_[from] += cost;
  // Rank-local like the staged outbox below: only `from`'s comm-matrix row
  // is touched, so the threaded backend needs no merge machinery here.
  if (metrics_ != nullptr) metrics_->on_send(from, to, bytes);
  // The payload goes into the sender's own arena and the record into its
  // own stage (no cross-rank write); the barrier groups the stages by
  // destination in sender-rank order.
  Arena& arena = arenas_[static_cast<std::size_t>(from)][deliveries_ & 1];
  std::byte* payload = arena.append(bytes);
  staged_[static_cast<std::size_t>(from)].push_back(
      Posted{to, Message{from, tag, {payload, bytes}}});
  return payload;
}

void Machine::run_bodies(FunctionRef<void(RankContext&)> body) {
  for (int r = 0; r < nranks_; ++r) {
    const RankGuard guard(r);
    RankContext ctx(*this, r);
    body(ctx);
  }
}

void Machine::flush_pending_trace(int upto_rank) {
  for (int r = 0; r < upto_rank; ++r) {
    for (const PendingSpan& s : pending_trace_[r]) {
      trace_->record(r, s.kind, s.start, s.end, s.flops, s.bytes, s.messages);
    }
  }
  for (auto& spans : pending_trace_) spans.clear();
}

void Machine::run_bodies_threaded(FunctionRef<void(RankContext&)> body) {
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    pending_trace_.resize(static_cast<std::size_t>(nranks_));
    for (auto& spans : pending_trace_) spans.clear();
    trace_deferred_ = true;
  }
  if (checker_ != nullptr) checker_->begin_deferred();
  if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>(resolved_pool_size());
  // Snapshot per-rank accounting and traffic: if a body throws, the ranks
  // the sequential interpreter would never have run are rolled back so the
  // machine state after the throw matches the sequential backend's.
  const std::size_t buffer = deliveries_ & 1;
  clock_before_ = clock_;
  counters_before_ = counters_;
  staged_before_.resize(static_cast<std::size_t>(nranks_));
  arena_before_.resize(static_cast<std::size_t>(nranks_));
  for (std::size_t r = 0; r < staged_before_.size(); ++r) {
    staged_before_[r] = staged_[r].size();
    arena_before_[r] = arenas_[r][buffer].mark();
  }
  errors_.assign(static_cast<std::size_t>(nranks_), nullptr);
  pool_->run(nranks_, [&](int r) {
    const RankGuard guard(r);
    try {
      RankContext ctx(*this, r);
      body(ctx);
    } catch (...) {
      errors_[static_cast<std::size_t>(r)] = std::current_exception();
    }
  });
  trace_deferred_ = false;
  int bad = -1;
  for (int r = 0; r < nranks_; ++r) {
    if (errors_[static_cast<std::size_t>(r)] != nullptr) {
      bad = r;
      break;
    }
  }
  if (bad < 0) {
    if (tracing) flush_pending_trace(nranks_);
    if (checker_ != nullptr) checker_->end_deferred(nranks_);
    return;
  }
  // A body threw. The sequential interpreter runs ranks in ascending order,
  // so the lowest failing rank is the one whose exception would have
  // surfaced there, and higher ranks would never have started: restore
  // their accounting, drop the traffic they posted (records and payload
  // bytes), reopen the inboxes they drained, and discard their buffered
  // observations before propagating.
  for (int r = bad + 1; r < nranks_; ++r) {
    const auto s = static_cast<std::size_t>(r);
    clock_[s] = clock_before_[s];
    counters_[s] = counters_before_[s];
    staged_[s].resize(staged_before_[s]);
    arenas_[s][buffer].truncate(arena_before_[s]);
    boxes_[s].drained = false;
  }
  if (tracing) flush_pending_trace(bad + 1);
  if (checker_ != nullptr) checker_->end_deferred(bad + 1);
  const std::exception_ptr error = errors_[static_cast<std::size_t>(bad)];
  errors_.assign(errors_.size(), nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const Conformance::DeferredViolation& v) {
    // Rebuild the sequential report now that the committed transcript is
    // identical to what the sequential interpreter would hold.
    checker_->throw_violation(v.summary);
  }
}

void Machine::deliver() {
  // The previous superstep's inboxes close.
  for (const int d : touched_) boxes_[static_cast<std::size_t>(d)] = Box{};
  touched_.clear();
  // Count each destination's messages and bytes, in (sender rank, program
  // order), and clear the arena each sender writes next: it holds the
  // payloads delivered at the previous barrier, whose superstep is over.
  std::size_t total = 0;
  const std::size_t next = (deliveries_ + 1) & 1;
  for (std::size_t s = 0; s < staged_.size(); ++s) {
    arenas_[s][next].clear();
    for (const Posted& p : staged_[s]) {
      Box& box = boxes_[static_cast<std::size_t>(p.to)];
      if (box.count++ == 0) touched_.push_back(p.to);
      box.bytes += p.msg.payload.size();
    }
    total += staged_[s].size();
  }
  std::sort(touched_.begin(), touched_.end());
  std::uint32_t at = 0;
  for (const int d : touched_) {
    Box& box = boxes_[static_cast<std::size_t>(d)];
    box.begin = at;
    at += box.count;
  }
  // Place the messages, using each box's begin as its fill cursor.
  delivered_.resize(total);
  for (std::vector<Posted>& stage : staged_) {
    for (const Posted& p : stage) {
      delivered_[boxes_[static_cast<std::size_t>(p.to)].begin++] = p.msg;
    }
    stage.clear();
  }
  for (const int d : touched_) {
    Box& box = boxes_[static_cast<std::size_t>(d)];
    box.begin -= box.count;
  }
  ++deliveries_;
}

void Machine::step(FunctionRef<void(RankContext&)> body, std::string_view site) {
  if (checker_ != nullptr) checker_->on_step_begin(supersteps_, site);
  if (backend_ == Backend::kThreads && nranks_ > 1) {
    run_bodies_threaded(body);
  } else {
    run_bodies(body);
  }
  // Conformance barrier before physical delivery: collective fingerprints
  // must agree, and an undrained inbox is flagged before the delivery below
  // silently drops its messages.
  if (checker_ != nullptr) checker_->on_barrier(supersteps_);
  // Deliver staged messages for the next superstep, destination-wise in
  // (sender rank, program order). This is the only point where messages
  // cross ranks, and it runs on the main thread.
  deliver();
  // Receivers pay the per-byte cost of draining their inbound traffic.
  // Only ranks with inbound messages are visited, in ascending rank order
  // (the order of a dense scan); a rank without inbound traffic would add
  // a cost of exactly 0.0 and record no trace span, so skipping it is
  // bit-identical.
  for (const int r : touched_) {
    const Box& box = boxes_[static_cast<std::size_t>(r)];
    const double cost = static_cast<double>(box.bytes) * params_.beta;
    if (trace_ != nullptr && box.bytes > 0) {
      trace_->record(r, SpanKind::kRecv, clock_[r], clock_[r] + cost, 0, box.bytes,
                     box.count);
    }
    clock_[r] += cost;
  }
  // Barrier: all clocks advance to the max plus a latency tree.
  const double sync =
      params_.alpha * std::max(1.0, std::ceil(std::log2(static_cast<double>(nranks_))));
  const double horizon = *std::max_element(clock_.begin(), clock_.end()) + sync;
  if (trace_ != nullptr) {
    const SpanKind kind = in_allreduce_ ? SpanKind::kAllreduce : SpanKind::kBarrier;
    for (int r = 0; r < nranks_; ++r) {
      trace_->record(r, kind, clock_[r], horizon, 0, 0, 0);
    }
    trace_->sync(horizon);
  }
  // Pre-fill clocks carry the straggler/busy information; main thread only.
  if (metrics_ != nullptr) metrics_->on_sync(clock_, horizon);
  std::fill(clock_.begin(), clock_.end(), horizon);
  ++supersteps_;
}

double Machine::allreduce_sum(FunctionRef<double(int)> value_of_rank,
                              std::string_view site) {
  reduce_real_.assign(static_cast<std::size_t>(nranks_), 0.0);
  in_allreduce_ = true;
  step([&](RankContext& ctx) {
    ctx.declare_collective(CollectiveOp::kSum, sizeof(double), site);
    reduce_real_[static_cast<std::size_t>(ctx.rank())] = value_of_rank(ctx.rank());
  }, site);
  in_allreduce_ = false;
  // Combine in rank order — the exact floating-point summation order the
  // sequential interpreter accumulated in, so both backends return the
  // same bits.
  double total = 0.0;
  for (int r = 0; r < nranks_; ++r) total += reduce_real_[static_cast<std::size_t>(r)];
  return total;
}

double Machine::allreduce_max(FunctionRef<double(int)> value_of_rank,
                              std::string_view site) {
  reduce_real_.assign(static_cast<std::size_t>(nranks_),
                      -std::numeric_limits<double>::infinity());
  in_allreduce_ = true;
  step([&](RankContext& ctx) {
    ctx.declare_collective(CollectiveOp::kMax, sizeof(double), site);
    reduce_real_[static_cast<std::size_t>(ctx.rank())] = value_of_rank(ctx.rank());
  }, site);
  in_allreduce_ = false;
  double best = -std::numeric_limits<double>::infinity();
  for (int r = 0; r < nranks_; ++r) {
    best = std::max(best, reduce_real_[static_cast<std::size_t>(r)]);
  }
  return best;
}

long long Machine::allreduce_sum_ll(FunctionRef<long long(int)> value_of_rank,
                                    std::string_view site) {
  reduce_ll_.assign(static_cast<std::size_t>(nranks_), 0);
  in_allreduce_ = true;
  step([&](RankContext& ctx) {
    ctx.declare_collective(CollectiveOp::kSumLL, sizeof(long long), site);
    reduce_ll_[static_cast<std::size_t>(ctx.rank())] = value_of_rank(ctx.rank());
  }, site);
  in_allreduce_ = false;
  long long total = 0;
  for (int r = 0; r < nranks_; ++r) total += reduce_ll_[static_cast<std::size_t>(r)];
  return total;
}

void Machine::charge_transfer(int from, int to, std::uint64_t bytes,
                              std::string_view site) {
  if (checker_ != nullptr) checker_->on_transfer(from, to, bytes, site);
  PTILU_CHECK(from >= 0 && from < nranks_ && to >= 0 && to < nranks_,
              "charge_transfer: invalid rank");
  counters_[from].messages_sent += 1;
  counters_[from].bytes_sent += bytes;
  const double send_cost = params_.alpha + static_cast<double>(bytes) * params_.beta;
  const double recv_cost = static_cast<double>(bytes) * params_.beta;
  if (trace_ != nullptr) {
    trace_->record(from, SpanKind::kSend, clock_[from], clock_[from] + send_cost, 0,
                   bytes, 1);
    trace_->record(to, SpanKind::kRecv, clock_[to], clock_[to] + recv_cost, 0, bytes, 1);
  }
  clock_[from] += send_cost;
  clock_[to] += recv_cost;
  if (metrics_ != nullptr) metrics_->on_transfer(from, to, bytes);
}

void Machine::collective(std::uint64_t payload_bytes, std::string_view site) {
  if (checker_ != nullptr) {
    // A machine-driven exchange involves every rank by construction; the
    // fingerprints still flow through the checker so transcripts show the
    // collective and seeded divergence tests exercise the same path.
    checker_->on_step_begin(supersteps_, site);
    for (int r = 0; r < nranks_; ++r) {
      checker_->declare_collective(r, CollectiveOp::kExchange, payload_bytes, site);
    }
    checker_->on_barrier(supersteps_);
  }
  const double hops = std::max(1.0, std::ceil(std::log2(static_cast<double>(nranks_))));
  const double cost =
      hops * (params_.alpha + static_cast<double>(payload_bytes) * params_.beta);
  const double horizon = *std::max_element(clock_.begin(), clock_.end()) + cost;
  // Each rank participates in every stage of the log2(p) combining tree, so
  // it is charged one message per hop — the same tree the time model prices
  // above, and the same count the trace spans carry so counter-vs-trace
  // reconciliation holds for collectives exactly as it does for sends.
  const auto hop_msgs = static_cast<std::uint64_t>(hops);
  if (trace_ != nullptr) {
    for (int r = 0; r < nranks_; ++r) {
      trace_->record(r, SpanKind::kAllreduce, clock_[r], horizon, 0, payload_bytes,
                     hop_msgs);
    }
    trace_->sync(horizon);
  }
  if (metrics_ != nullptr) {
    // Tree hops/payloads are tracked separately from the point-to-point
    // comm matrix so both reconcile exactly with the counter bumps below.
    metrics_->on_collective(hop_msgs, payload_bytes);
    metrics_->on_sync(clock_, horizon);
  }
  std::fill(clock_.begin(), clock_.end(), horizon);
  for (auto& c : counters_) {
    c.messages_sent += hop_msgs;
    c.bytes_sent += payload_bytes;
  }
  ++supersteps_;
}

double Machine::modeled_time() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

RankCounters Machine::total_counters() const {
  RankCounters total;
  for (const auto& c : counters_) {
    total.flops += c.flops;
    total.mem_bytes += c.mem_bytes;
    total.messages_sent += c.messages_sent;
    total.bytes_sent += c.bytes_sent;
  }
  return total;
}

void Machine::check_quiescent(std::string_view site) {
  if (checker_ != nullptr) checker_->on_quiescent(site);
}

void Machine::push_phase(std::string_view name) {
  PTILU_ASSERT(tl_current_rank == -1, "phase pushed inside a superstep body");
  if (trace_ != nullptr) trace_->push_phase(name);
  if (metrics_ != nullptr) metrics_->push_phase(name);
}

void Machine::pop_phase() {
  PTILU_ASSERT(tl_current_rank == -1, "phase popped inside a superstep body");
  if (trace_ != nullptr) trace_->pop_phase();
  if (metrics_ != nullptr) metrics_->pop_phase();
}

void Machine::reset() {
  // Metrics first: it flushes the trailing clock advance and banks the
  // counters this reset is about to zero.
  if (metrics_ != nullptr) metrics_->on_reset(clock_, counters_);
  std::fill(clock_.begin(), clock_.end(), 0.0);
  counters_.assign(nranks_, RankCounters{});
  for (const int d : touched_) boxes_[static_cast<std::size_t>(d)] = Box{};
  touched_.clear();
  delivered_.clear();
  for (auto& stage : staged_) stage.clear();
  for (auto& pair : arenas_) {
    for (Arena& arena : pair) arena.clear();
  }
  for (auto& spans : pending_trace_) spans.clear();
  supersteps_ = 0;
  if (trace_ != nullptr) trace_->on_machine_reset();
  if (checker_ != nullptr) checker_->on_reset();
}

}  // namespace ptilu::sim
