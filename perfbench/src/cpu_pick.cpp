#include "cpu_pick.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <iterator>

namespace perfbench {
namespace {

constexpr std::uint32_t kProbeLen = 1 << 14;  // 16k gathers over 192 KB: L2-resident
constexpr int kProbePasses = 8;
constexpr int kProbeRepeats = 3;  // the fastest of these counts for a core
constexpr auto kScoutPeriod = std::chrono::milliseconds(100);
constexpr double kMoveGain = 0.9;  // move only to a core at least 10% faster

bool pin(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(tid, sizeof one, &one) == 0;
}

}  // namespace

CpuPicker::CpuPicker() : index_(kProbeLen), values_(kProbeLen) {
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  // A fixed pseudo-random gather: y += v[index[i]] * v[i].
  std::uint32_t x = 0x2545F491U;
  for (std::uint32_t i = 0; i < kProbeLen; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    index_[i] = x % kProbeLen;
    values_[i] = 1.0 + static_cast<double>(i % 7) * 1e-3;
  }
  if (cpus_.size() >= 2) scout_ = std::thread([this] { scout(); });
}

CpuPicker::~CpuPicker() { stop(); }

double CpuPicker::probe() const {
  const auto t0 = std::chrono::steady_clock::now();
  double y = 0.0;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    for (std::uint32_t i = 0; i < kProbeLen; ++i) y += values_[index_[i]] * values_[i];
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile double sink = y;  // keeps the loop
  (void)sink;
  return std::chrono::duration<double>(t1 - t0).count();
}

std::vector<double> CpuPicker::probe_all() const {
  std::vector<double> s(cpus_.size());
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    pin(0, cpus_[i]);
    s[i] = probe();
    for (int r = 1; r < kProbeRepeats; ++r) s[i] = std::min(s[i], probe());
  }
  return s;
}

void CpuPicker::pick() {
  if (cpus_.size() < 2) return;
  const std::lock_guard lock(mu_);
  const std::vector<double> s = probe_all();
  const auto best = std::distance(s.begin(), std::min_element(s.begin(), s.end()));
  pin(0, cpus_[static_cast<std::size_t>(best)]);
  target_ = static_cast<pid_t>(syscall(SYS_gettid));
  target_cpu_ = static_cast<int>(best);
}

void CpuPicker::release() {
  if (cpus_.size() < 2) return;
  const std::lock_guard lock(mu_);
  target_ = 0;
  sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void CpuPicker::stop() {
  {
    const std::lock_guard lock(mu_);
    quit_ = true;
  }
  wake_.notify_all();
  if (scout_.joinable()) scout_.join();
}

void CpuPicker::scout() {
  std::unique_lock lock(mu_);
  while (!wake_.wait_for(lock, kScoutPeriod, [this] { return quit_; })) {
    if (target_ == 0) continue;
    std::vector<double> s;
    try {
      s = probe_all();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: core scout stopped: %s\n", e.what());
      return;  // the benchmark thread stays where it is
    }
    const auto best = static_cast<int>(std::distance(s.begin(), std::min_element(s.begin(), s.end())));
    const auto at = static_cast<std::size_t>(target_cpu_);
    if (best != target_cpu_ && s[static_cast<std::size_t>(best)] < kMoveGain * s[at]) {
      if (pin(target_, cpus_[static_cast<std::size_t>(best)])) target_cpu_ = best;
    }
  }
}

}  // namespace perfbench
