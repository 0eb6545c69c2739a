// Shared pieces of the benchmark program: arguments, the run report, fixed
// models, seeded inputs, and the checks every workload runs.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/compiled_model.hpp"
#include "core/lightator.hpp"
#include "nn/network.hpp"
#include "obs/trace.hpp"
#include "sensor/image.hpp"
#include "stats.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

namespace lt = lightator;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out_dir = ".";
};

/// Everything one run reports: metrics, operation counts, named checks,
/// values run.py compares against perfbench/recorded.json, and run info
/// that explains a shift between runs.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// One checked operation: counts as attempted, and as failed unless `ok`.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A named check; counts as one operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Raw JSON value under "info".
  void info(const std::string& key, const std::string& json);
  void recorded(const std::string& key, const std::vector<double>& values);

  std::string to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::pair<bool, std::string>> checks_;
  std::map<std::string, std::string> info_;
  std::map<std::string, std::vector<double>> recorded_;
};

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// The span recorder of traced runs is the program's own
/// obs::TraceRecorder::global(), which also holds the spans the library
/// records inside the calls (submit, queue, batch_dispatch, compiled_run,
/// every conv and linear step, compile). Workloads get it as a pointer that
/// is null in untraced runs.
using Tracer = lt::obs::TraceRecorder;

/// Records the benchmark span [t0, t1] named `name` for request or call
/// `id` on the calling thread. Spans nest by containment on a thread, as in
/// the library's own trace. No-op when `rec` is null.
void span(Tracer* rec, const char* name, std::uint64_t id, Clock::time_point t0,
          Clock::time_point t1);

/// Stops `rec` and reports what the trace holds into the run info: event,
/// dropped and thread counts and, per span name, the total self time (span
/// time minus the union of its children on the same thread) in ms. Writes
/// the trace to `path` as chrome://tracing JSON.
void finish_trace(Tracer& rec, Report& r, const std::string& path);

/// Fixed-weight models: the weights never depend on the run's seed.
lt::nn::Network lenet();
lt::nn::Network vgg9();

/// A run has kRounds rounds. Each round sets the program up afresh (timed;
/// setup_s is the median over every set-up of the run), then runs phase
/// (a), one item in flight, for kOneInFlightShare of the round's share of
/// --seconds and phase (b), the loaded phase, for the rest.
/// throughput_per_s is the median over rounds of phase (b)'s items divided
/// by its wall time, so every item counts and a slow stretch of the host
/// (its speed drifts by tens of percent over seconds) moves one or two
/// rounds, not the metric.
inline constexpr int kRounds = 10;
inline constexpr double kOneInFlightShare = 0.4;

/// Seeded synthetic RGB scenes (blob scenes, the example pipelines' input).
std::vector<lt::sensor::Image> make_scenes(std::size_t count, std::size_t size,
                                           std::uint64_t seed);

/// LightatorSystem::acquire on every scene; frame i draws sensor noise from
/// mix_seed(sensor_seed, 0, i) like capture_and_infer does.
std::vector<lt::tensor::Tensor> acquire_all(
    const lt::core::LightatorSystem& sys,
    const std::vector<lt::sensor::Image>& scenes,
    const std::optional<lt::core::CaOptions>& ca, std::uint64_t sensor_seed);

/// Independent 64-bit stream derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

bool same_bits(std::span<const float> a, std::span<const float> b);

double peak_rss_mib();

/// While alive, pins every thread of the process to the CPU the creating
/// thread runs on; on destruction every thread gets back the affinity the
/// creating thread had. The coverage checks compare a call with its replay,
/// which may run on other threads: the host's vCPUs run at speeds that
/// differ by up to 1.6x for seconds at a time, so a call and its replay are
/// only comparable on one CPU. Threads that wait block on condition
/// variables, so a pinned multi-thread call time-slices instead of spinning.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  /// The CPU every thread runs on, or -1 when the affinity could not be set.
  int cpu() const { return cpu_; }

 private:
  int cpu_ = -1;
  bool saved_ = false;
  cpu_set_t unpinned_{};
};

/// Host CPU time counters of /proc/stat (all CPUs), in clock ticks.
struct HostCpu {
  double steal = 0.0;  // time the hypervisor ran other guests on our vCPUs
  double total = 0.0;
  /// Reads the counters now; zeros when /proc/stat cannot be read.
  static HostCpu now();
};

/// Run info under "host": the share of CPU time stolen by the hypervisor
/// since `start` and the process's involuntary context switches, which
/// explain a run slowed by other tenants of the machine.
void add_host_info(Report& r, const HostCpu& start);

/// Simulated statistics of LightatorSystem::analyze for LeNet [4:4] and the
/// fig09 VGG9 CA front end, as recorded values for run.py.
void add_simulated_stats(Report& r, const lt::core::LightatorSystem& sys);

/// JSON list of every weighted layer's frozen kernel config.
std::string kernel_configs(const lt::core::CompiledModel& model);

/// Kernel tier, nproc, and under "<tag>.kernel_configs" each distinct
/// kernel_configs() list the run's compiles froze with the number of
/// compiles that froze it (the fully connected race picks per compile).
void add_run_info(Report& r, const std::string& tag,
                  const std::map<std::string, int>& configs);

/// latency_p50_ms and latency_tail_ms of one-in-flight latencies (ms). The
/// tail percentile is fixed per workload: the highest one with at least ten
/// samples beyond it in `min_samples`, the least number of samples the
/// workload's one-in-flight phase takes. The tail is the median of that
/// percentile over consecutive chunks of `min_samples` latencies, so a slow
/// stretch of the host moves one chunk, not the metric. The percentile and
/// the sample count go into the run info.
void report_latency(Report& r, const std::vector<double>& latency_ms,
                    std::size_t min_samples);

/// Runs a batch-of-1 forward of every frame through `model` on a one-thread
/// pool and returns the logits rows.
std::vector<std::vector<float>> batch1_logits(
    const lt::core::CompiledModel& model,
    const std::vector<lt::tensor::Tensor>& frames);

}  // namespace perfbench
