// Keeping the benchmark thread on the fastest core.
//
// The benchmark runs on a few cores of a shared host. Each core's speed
// changes over time: for seconds at a stretch a core runs 1.4-1.7x slower
// (other tenants on the same physical core, or a lower clock), and the
// cores change state independently. The guest sees no steal time; thread
// CPU time slows down just as wall time does. A run that stays on one
// core measures whichever state that core is in.
//
// CpuPicker times a short fixed probe (an L2-resident gather, like the
// indirect loads of a sparse kernel) on each allowed core. pick() moves
// the calling thread to the fastest core now; the benchmark calls it
// before each timed unit of work, outside the timed interval. Between
// picks a scout thread, asleep most of the time, probes every core each
// kScoutPeriod and moves the picked thread when another core is clearly
// faster, so that a factorization lasting seconds does not stay on a core
// that slowed down under it. On a 4-core host this cut the quartile spread
// of 2 s work chunks from 0.15 to 0.07 of the median. The measured values
// stay plain wall times of the library's calls; the scout's probes on the
// picked thread's core take about 0.3 ms in every 100 ms from it.
// Contention for the shared cache and memory slows every core at once;
// no choice of core avoids it (see perfbench/README.md).
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuPicker {
 public:
  /// The cores the process may run on when it is made.
  CpuPicker();
  ~CpuPicker();
  CpuPicker(const CpuPicker&) = delete;
  CpuPicker& operator=(const CpuPicker&) = delete;

  /// Move the calling thread to the core where the probe runs fastest,
  /// and let the scout keep it on the fastest core until release().
  void pick();

  /// Let the picked thread run on every allowed core again, unwatched
  /// (before it starts worker threads, which inherit its affinity).
  void release();

  /// Stop and join the scout thread.
  void stop();

 private:
  double probe() const;
  /// Probe seconds of every allowed core, probed from the calling thread.
  std::vector<double> probe_all() const;
  void scout();

  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::vector<std::uint32_t> index_;
  std::vector<double> values_;

  std::mutex mu_;  ///< one probing round at a time; guards the fields below
  std::condition_variable wake_;
  bool quit_ = false;
  pid_t target_ = 0;     ///< thread the scout moves; 0 when released
  int target_cpu_ = -1;  ///< index into cpus_ of the target's core
  std::thread scout_;
};

}  // namespace perfbench
