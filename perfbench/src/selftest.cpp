// Checks of the benchmark's own statistics: the tail-percentile rule,
// chunked tails, nesting trace spans by containment and self time from span
// intervals (the
// failed-ratio count lives in run.py and is checked by test_run.py). Exits
// non-zero when a check fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void tail_percentile() {
  // 1000 samples: p99 has exactly ten beyond it, p99.9 only one.
  auto t = choose_tail(1000);
  expect(t && t->percentile == 99.0 && t->rank == 990 && t->beyond == 10,
         "n=1000 -> p99 with 10 beyond");
  t = choose_tail(999);
  expect(t && t->percentile == 95.0 && t->beyond >= 10,
         "n=999 -> p95 (p99 leaves only 9 beyond)");
  t = choose_tail(200);
  expect(t && t->percentile == 95.0 && t->rank == 190 && t->beyond == 10,
         "n=200 -> p95 with 10 beyond");
  t = choose_tail(100);
  expect(t && t->percentile == 90.0 && t->beyond == 10,
         "n=100 -> p90 with 10 beyond");
  t = choose_tail(20);
  expect(t && t->percentile == 50.0 && t->beyond == 10,
         "n=20 -> p50 with 10 beyond");
  expect(!choose_tail(19).has_value(), "n=19 -> no percentile");
  expect(!choose_tail(0).has_value(), "n=0 -> no percentile");
  for (std::size_t n = 1; n < 3000; ++n) {
    const auto c = choose_tail(n);
    if (c && c->beyond < 10) {
      expect(false, "every choice leaves at least ten samples beyond");
      break;
    }
  }
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(201 - i);  // 200 .. 1, unsorted
  expect(value_at_rank(v, 190) == 190.0, "nearest-rank value");
  expect(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "interpolated median");
  expect(near(median({5, 1, 3}), 3.0), "odd median");
  expect(throws([] { quantile({}, 0.5); }), "empty sample throws");

  // Three chunks of 20: p50 (ten beyond) of each is 10, 30 and 1000 - the
  // outlying chunk does not move the median.
  std::vector<double> chunks;
  for (int i = 1; i <= 20; ++i) chunks.push_back(i);
  for (int i = 21; i <= 40; ++i) chunks.push_back(i);
  for (int i = 0; i < 20; ++i) chunks.push_back(1000 + i);
  chunks.push_back(5);  // trailing partial chunk, dropped
  expect(chunked_percentile(chunks, 20, 50.0) == 30.0, "median of chunk p50s");
  expect(throws([] { chunked_percentile({1, 2}, 3, 50.0); }),
         "no full chunk throws");
}

void nesting() {
  // Thread 0: call [0, 10] holding a [1, 4] (with a.x [1, 2]) and b [5, 9];
  // a second span [0, 10] is nested in the first. Thread 1: an overlapping
  // span [3, 6] is a root of its own thread, not a child of thread 0's.
  std::vector<Span> spans = {
      {"b", 1, -1, 5.0, 9.0, 0},    {"a.x", 1, -1, 1.0, 2.0, 0},
      {"call", 1, -1, 0.0, 10.0, 0}, {"pool", 1, -1, 3.0, 6.0, 1},
      {"a", 1, -1, 1.0, 4.0, 0},    {"same", 1, -1, 0.0, 10.0, 0},
  };
  nest_by_containment(spans);
  const auto parent_of = [&](const char* name) -> std::string {
    for (const Span& s : spans) {
      if (s.name == name) {
        return s.parent < 0 ? "-" : spans[static_cast<std::size_t>(s.parent)].name;
      }
    }
    return "?";
  };
  expect(parent_of("call") == "-" || parent_of("same") == "-",
         "one of two identical spans is the root");
  expect(parent_of("a") == "call" || parent_of("a") == "same",
         "a nests in the innermost enclosing span");
  expect(parent_of("a.x") == "a", "grandchild nests in a");
  expect(parent_of("b") == parent_of("a"), "siblings share the parent");
  expect(parent_of("pool") == "-", "another thread's span is its own root");
  const std::vector<double> self = self_times(spans);
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].tid == 0) total += self[i];
  }
  expect(near(total, 10.0), "self times of one thread sum to its root");
}

void self_time() {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping, as on two
  // threads) and [8, 12] (clipped at the parent's end); grandchild [1, 2].
  const std::vector<Span> spans = {
      {"root", 1, -1, 0.0, 10.0}, {"a", 1, 0, 1.0, 4.0},
      {"b", 1, 0, 3.0, 6.0},      {"c", 1, 0, 8.0, 12.0},
      {"a.x", 1, 1, 1.0, 2.0},
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 10.0 - 5.0 - 2.0),
         "root self = 10 - union(1..6, 8..10)");
  expect(near(self[1], 2.0), "child self subtracts grandchild");
  expect(near(self[2], 3.0), "leaf self = duration");
  expect(near(self[4], 1.0), "grandchild self");
  const std::vector<Span> serial = {{"call", 7, -1, 0.0, 1.0},
                                    {"s1", 7, 0, 0.0, 0.25},
                                    {"s2", 7, 0, 0.25, 0.75}};
  const std::vector<double> s = self_times(serial);
  expect(near(s[0] + s[1] + s[2], 1.0), "serial self times sum to the root");
  expect(throws([] { self_times({{"x", 0, 3, 0.0, 1.0}}); }),
         "bad parent throws");
}

}  // namespace

int main() {
  tail_percentile();
  nesting();
  self_time();
  if (failures == 0) std::printf("perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
