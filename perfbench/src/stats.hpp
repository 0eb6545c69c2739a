// Order statistics and span accounting used by the benchmark.
//
// Kept free of any simulator dependency so perfbench_selftest can check them
// in isolation: the tail-percentile rule, chunked tails, and self time of
// trace spans as span time minus the union of child intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
/// Throws std::invalid_argument on an empty sample or q outside [0, 1].
double quantile(std::vector<double> values, double q);

/// quantile(values, 0.5).
double median(std::vector<double> values);

/// A tail percentile chosen for a sample of `n` values.
struct TailChoice {
  double percentile = 0.0;  // e.g. 95.0
  std::size_t rank = 0;     // 1-based nearest rank of that percentile
  std::size_t beyond = 0;   // samples ranked strictly above it
};

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} whose
/// nearest-rank value has at least `min_beyond` samples beyond it; nullopt
/// when even the median has fewer.
std::optional<TailChoice> choose_tail(std::size_t n,
                                      std::size_t min_beyond = 10);

/// Nearest-rank value at `rank` (1-based) of an unsorted sample.
double value_at_rank(std::vector<double> values, std::size_t rank);

/// Median over consecutive chunks of `chunk` values (a trailing partial
/// chunk is dropped) of each chunk's nearest-rank `percentile`. Throws
/// std::invalid_argument when there is no full chunk.
double chunked_percentile(const std::vector<double>& values, std::size_t chunk,
                          double percentile);

/// One recorded span: times in seconds from a common epoch, `parent` an
/// index into the same span list (-1 for a root), `tid` the thread that
/// recorded it.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  std::uint32_t tid = 0;

  double duration() const { return end - start; }
};

/// Sets every span's parent to the innermost earlier-starting span of the
/// same thread whose interval contains it: the nesting a trace viewer draws
/// for synchronous spans. Sorts `spans` by (tid, start ascending, end
/// descending), so of two identical intervals the first is the parent.
void nest_by_containment(std::vector<Span>& spans);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children running in
/// parallel are not counted twice; child time outside the parent is
/// clipped). Throws std::invalid_argument on a parent index out of range.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
