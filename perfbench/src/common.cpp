#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <algorithm>
#include <sstream>

#include "core/compute_backend.hpp"
#include "nn/model_desc.hpp"
#include "nn/models.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/scenes.hpp"

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_[name] = {value, unit};
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  op(ok);
  auto [it, fresh] = checks_.try_emplace(name, ok, detail);
  if (!fresh) {
    it->second.first = it->second.first && ok;
    if (!ok) it->second.second = detail;
  }
}

void Report::info(const std::string& key, const std::string& json) {
  info_[key] = json;
}

void Report::recorded(const std::string& key,
                      const std::vector<double>& values) {
  recorded_[key] = values;
}

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_;
  o << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, mv] : metrics_) {
    o << sep << quoted(name) << ": {\"value\": " << number(mv.first)
      << ", \"unit\": " << quoted(mv.second) << "}";
    sep = ", ";
  }
  o << "}, \"checks\": {";
  sep = "";
  for (const auto& [name, c] : checks_) {
    o << sep << quoted(name) << ": {\"ok\": " << (c.first ? "true" : "false")
      << ", \"detail\": " << quoted(c.second) << "}";
    sep = ", ";
  }
  o << "}, \"recorded\": {";
  sep = "";
  for (const auto& [key, values] : recorded_) {
    o << sep << quoted(key) << ": [";
    const char* vsep = "";
    for (const double v : values) {
      o << vsep << number(v);
      vsep = ", ";
    }
    o << "]";
    sep = ", ";
  }
  o << "}, \"info\": {";
  sep = "";
  for (const auto& [key, json] : info_) {
    o << sep << quoted(key) << ": " << json;
    sep = ", ";
  }
  o << "}}";
  return o.str();
}

lt::nn::Network lenet() {
  lt::util::Rng rng(21);
  return lt::nn::build_lenet(rng);
}

lt::nn::Network vgg9() {
  lt::util::Rng rng(9);
  return lt::nn::build_vgg9(rng, 10, 1.0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return lt::core::mix_seed(seed + 1, stream, 0);
}

std::vector<lt::sensor::Image> make_scenes(std::size_t count, std::size_t size,
                                           std::uint64_t seed) {
  lt::util::Rng rng(seed);
  std::vector<lt::sensor::Image> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    scenes.push_back(lt::workloads::make_blob_scene(size, size, rng));
  }
  return scenes;
}

std::vector<lt::tensor::Tensor> acquire_all(
    const lt::core::LightatorSystem& sys,
    const std::vector<lt::sensor::Image>& scenes,
    const std::optional<lt::core::CaOptions>& ca, std::uint64_t sensor_seed) {
  std::vector<lt::tensor::Tensor> frames;
  frames.reserve(scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    lt::util::Rng noise(lt::core::mix_seed(sensor_seed, 0, i));
    frames.push_back(sys.acquire(scenes[i], ca, &noise));
  }
  return frames;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// Sets the affinity of every thread of the process to `mask`; false when
/// the threads cannot be listed or one of them refused. Allocates nothing,
/// so the destructor of OneCpu cannot throw.
bool set_all_threads(const cpu_set_t& mask) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return false;
  bool all = true;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    all = sched_setaffinity(std::atoi(e->d_name), sizeof mask, &mask) == 0 &&
          all;
  }
  closedir(dir);
  return all;
}

}  // namespace

OneCpu::OneCpu() {
  const int cpu = sched_getcpu();
  saved_ = sched_getaffinity(0, sizeof unpinned_, &unpinned_) == 0;
  if (cpu < 0 || !saved_) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  cpu_ = set_all_threads(one) ? cpu : -1;
}

OneCpu::~OneCpu() {
  // Threads started while pinned inherited the one-CPU mask; they get the
  // saved one too.
  if (saved_) set_all_threads(unpinned_);
}

HostCpu HostCpu::now() {
  HostCpu c;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return c;
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    c.steal = v[7];
    for (const double x : v) c.total += x;
  }
  std::fclose(f);
  return c;
}

void add_host_info(Report& r, const HostCpu& start) {
  const HostCpu end = HostCpu::now();
  const double total = end.total - start.total;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.info("host", "{\"steal_share\": " +
                     number(total > 0.0 ? (end.steal - start.steal) / total
                                        : 0.0) +
                     ", \"involuntary_switches\": " +
                     std::to_string(usage.ru_nivcsw) + "}");
}

void add_simulated_stats(Report& r, const lt::core::LightatorSystem& sys) {
  const auto schedule = lt::nn::PrecisionSchedule::uniform(4);
  const auto flatten = [](const lt::core::SystemReport& rep) {
    return std::vector<double>{rep.kfps_per_watt, rep.energy_per_frame,
                               rep.latency, rep.fps_batched};
  };
  r.recorded("analyze.lenet_4_4",
             flatten(sys.analyze(lt::nn::lenet_desc(), schedule)));
  lt::core::AnalyzeOptions opts;
  opts.ca_frontend = lt::core::CaOptions{2, true, 4};
  opts.ca_in_h = 32;
  opts.ca_in_w = 32;
  r.recorded("analyze.vgg9_ca_4_4",
             flatten(sys.analyze(lt::nn::vgg9_desc(10, 1.0, 16, 16, 1),
                                 schedule, opts)));
}

std::string kernel_configs(const lt::core::CompiledModel& model) {
  std::string configs = "[";
  for (std::size_t i = 0; i < model.num_weighted_layers(); ++i) {
    const lt::tensor::KernelConfig kc = model.kernel_config(i);
    configs += (i ? ", " : "");
    configs += std::string("{\"tier\": \"") +
               lt::tensor::simd::tier_name(kc.tier) +
               "\", \"nc_strips\": " + std::to_string(kc.nc_strips) + "}";
  }
  return configs + "]";
}

void add_run_info(Report& r, const std::string& tag,
                  const std::map<std::string, int>& configs) {
  r.info("kernel_tier",
         std::string("\"") + lt::tensor::simd::active_kernel() + "\"");
  r.info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  std::string out = "[";
  for (const auto& [layers, compiles] : configs) {
    out += (out.size() > 1 ? ", " : "");
    out += "{\"layers\": " + layers +
           ", \"compiles\": " + std::to_string(compiles) + "}";
  }
  r.info(tag + ".kernel_configs", out + "]");
}

void span(Tracer* rec, const char* name, std::uint64_t id, Clock::time_point t0,
          Clock::time_point t1) {
  if (rec == nullptr) return;
  const std::int64_t start = rec->to_us(t0);
  rec->record(name, "bench", start, rec->to_us(t1) - start, id);
}

void finish_trace(Tracer& rec, Report& r, const std::string& path) {
  rec.stop();
  std::vector<Span> spans;
  for (const lt::obs::TraceEvent& e : rec.snapshot()) {
    if (e.ph != 'X') continue;  // async queue spans cross threads
    spans.push_back(Span{e.name, e.request_id, -1,
                         static_cast<double>(e.ts_us) * 1e-6,
                         static_cast<double>(e.ts_us + e.dur_us) * 1e-6,
                         e.tid});
  }
  nest_by_containment(spans);
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[spans[i].name] += self[i] * 1e3;
  }
  std::string totals = "{";
  for (const auto& [name, ms] : self_ms) {
    totals += (totals.size() > 1 ? ", " : "") + quoted(name) + ": " + number(ms);
  }
  r.info("trace", "{\"events\": " + std::to_string(rec.recorded()) +
                      ", \"dropped\": " + std::to_string(rec.dropped()) +
                      ", \"threads\": " + std::to_string(rec.thread_count()) +
                      ", \"self_ms\": " + totals + "}}");
  rec.write_chrome_json(path);
}

void report_latency(Report& r, const std::vector<double>& latency_ms,
                    std::size_t min_samples) {
  r.metric("latency_p50_ms", median(latency_ms), "ms");
  const std::optional<TailChoice> tail = choose_tail(min_samples);
  if (!tail) throw std::logic_error("report_latency: too few min_samples");
  const std::size_t n = latency_ms.size();
  r.check("latency_tail.ten_beyond", n >= min_samples,
          std::to_string(n) + " samples");
  r.metric("latency_tail_ms",
           n >= min_samples
               ? chunked_percentile(latency_ms, min_samples, tail->percentile)
               : *std::max_element(latency_ms.begin(), latency_ms.end()),
           "ms");
  r.info("latency_tail", "{\"percentile\": " + number(tail->percentile) +
                             ", \"chunk\": " + std::to_string(min_samples) +
                             ", \"samples\": " + std::to_string(n) + "}");
}

std::vector<std::vector<float>> batch1_logits(
    const lt::core::CompiledModel& model,
    const std::vector<lt::tensor::Tensor>& frames) {
  lt::util::ThreadPool pool(1);
  lt::core::ExecutionContext ctx;
  ctx.pool = &pool;
  std::vector<std::vector<float>> out;
  out.reserve(frames.size());
  for (const auto& f : frames) {
    const lt::core::BatchOutput y = model.run(f, ctx);
    const auto row = y.row(0);
    out.emplace_back(row.begin(), row.end());
  }
  return out;
}

}  // namespace perfbench
