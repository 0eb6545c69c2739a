#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

/// 1-based nearest rank of `percentile` (0..100, in steps of 0.1) in a
/// sample of `n`: ceil(percentile * n / 100), in tenths of a percent so the
/// arithmetic is exact.
std::size_t nearest_rank(double percentile, std::size_t n) {
  const auto tenths = static_cast<std::size_t>(std::lround(percentile * 10.0));
  return (tenths * n + 999) / 1000;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q outside [0, 1]");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::optional<TailChoice> choose_tail(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    const std::size_t rank = nearest_rank(p, n);
    if (rank == 0 || rank > n) continue;
    if (n - rank >= min_beyond) {
      return TailChoice{p, rank, n - rank};
    }
  }
  return std::nullopt;
}

double value_at_rank(std::vector<double> values, std::size_t rank) {
  if (rank == 0 || rank > values.size()) {
    throw std::invalid_argument("value_at_rank: rank out of range");
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double chunked_percentile(const std::vector<double>& values, std::size_t chunk,
                          double percentile) {
  if (chunk == 0 || values.size() < chunk) {
    throw std::invalid_argument("chunked_percentile: no full chunk");
  }
  const std::size_t rank =
      std::max<std::size_t>(nearest_rank(percentile, chunk), 1);
  std::vector<double> per_chunk;
  for (auto it = values.begin();
       values.end() - it >= static_cast<std::ptrdiff_t>(chunk);
       it += static_cast<std::ptrdiff_t>(chunk)) {
    per_chunk.push_back(value_at_rank(
        std::vector<double>(it, it + static_cast<std::ptrdiff_t>(chunk)),
        rank));
  }
  return median(std::move(per_chunk));
}

void nest_by_containment(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });
  std::vector<int> open;  // the current thread's stack of enclosing spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) open.clear();
    while (!open.empty() &&
           spans[static_cast<std::size_t>(open.back())].end < spans[i].end) {
      open.pop_back();
    }
    spans[i].parent = open.empty() ? -1 : open.back();
    open.push_back(static_cast<int>(i));
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument("self_times: parent index out of range");
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench
