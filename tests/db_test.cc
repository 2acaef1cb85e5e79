#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/db/loader.h"
#include "fgq/db/probe_kernels.h"
#include "fgq/db/relation.h"
#include "fgq/db/tag_key_set.h"
#include "fgq/db/value.h"
#include "fgq/eval/prepared.h"
#include "fgq/trace/trace.h"
#include "fgq/util/hash.h"
#include "fgq/util/simd.h"

namespace fgq {

/// Befriended by HashIndex: lets the tag-collision test derive the 8-bit
/// tag of a key exactly as the index does.
struct HashIndexTestPeer {
  static constexpr uint64_t KeySeed() { return HashIndex::kKeySeed; }
  static bool HasDenseCount(const HashIndex& idx) {
    return !idx.dense_cnt_.empty();
  }
};

namespace {

Relation MakeEdges() {
  Relation r("E", 2);
  r.Add({1, 2});
  r.Add({2, 3});
  r.Add({1, 2});  // Duplicate.
  r.Add({0, 1});
  return r;
}

TEST(Relation, SortDedupEstablishesSetSemantics) {
  Relation r = MakeEdges();
  EXPECT_EQ(r.NumTuples(), 4u);
  r.SortDedup();
  ASSERT_EQ(r.NumTuples(), 3u);
  EXPECT_EQ(r.Row(0)[0], 0);
  EXPECT_EQ(r.Row(1)[0], 1);
  EXPECT_EQ(r.Row(2)[0], 2);
}

// ---- The packed-key SortDedup kernel vs a std::set reference ---------------

/// Value shapes for the property test. Each names the key width it
/// produces: kSmall and kConstantCols pack in a few bits per column,
/// kExact64 packs in exactly 64 bits, kFullRange spans all of int64 in
/// column 0 (packs at arity 1 only, so it drives the comparator fallback
/// at arity >= 2).
enum class Shape { kSmall, kConstantCols, kExact64, kFullRange };

/// Bit widths summing to exactly 64 over `arity` columns.
std::vector<unsigned> Exact64Widths(size_t arity) {
  std::vector<unsigned> w(arity, static_cast<unsigned>(64 / arity));
  for (size_t c = 0; c < 64 % arity; ++c) ++w[c];
  return w;
}

/// A random relation of `n` rows with about a third repeated rows. Rows 0
/// and 1 pin each column's extremes so the column widths are exact.
Relation ShapedRelation(Shape shape, size_t arity, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<unsigned> widths = Exact64Widths(arity);
  std::vector<Value> full_range_pool(50);
  for (Value& v : full_range_pool) v = static_cast<Value>(rng());
  full_range_pool[0] = std::numeric_limits<Value>::min();
  full_range_pool[1] = std::numeric_limits<Value>::max();
  auto cell = [&](size_t row, size_t c) -> Value {
    switch (shape) {
      case Shape::kSmall:
        return static_cast<Value>(rng() % 44) - 3;  // kBottom included.
      case Shape::kConstantCols:
        if (c % 2 == 1) return c == 1 ? kBottom : 7;
        return static_cast<Value>(rng() % 20) - 2;
      case Shape::kExact64: {
        const unsigned w = widths[c];
        const uint64_t mask = w == 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
        const uint64_t base = w == 64 ? uint64_t{1} << 63 : ~(mask >> 1);
        const uint64_t off = row == 0 ? 0 : row == 1 ? mask : rng() & mask;
        return static_cast<Value>(base + off);
      }
      case Shape::kFullRange:
        if (c == 0) {
          return row < 2 ? full_range_pool[row]
                         : full_range_pool[rng() % full_range_pool.size()];
        }
        return row < 2 ? static_cast<Value>(3 * row)
                       : static_cast<Value>(rng() % 4);
    }
    return 0;
  };
  Relation r("R", arity);
  Tuple t(arity);
  const size_t fresh = n - n / 3;
  for (size_t i = 0; i < n; ++i) {
    if (i < fresh || i < 2) {
      for (size_t c = 0; c < arity; ++c) t[c] = cell(i, c);
      r.Add(t);
    } else {
      t = r.Row(rng() % i).ToTuple();
      r.Add(t);
    }
  }
  // Shuffle so the duplicates are not adjacent.
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(r.Row(i).ToTuple());
  std::shuffle(rows.begin(), rows.end(), rng);
  Relation out("R", arity);
  for (const Tuple& row : rows) out.Add(row);
  return out;
}

TEST(SortDedupKernel, MatchesSetReferenceOnEveryShape) {
  const ExecContext serial;
  const ExecContext pooled(ExecOptions::Parallel(4));
  // Both sides of the radix cutoff (512 keys) and of the parallel row
  // cutoff (8192 rows).
  const size_t row_counts[] = {1, 2, 300, 511, 512, 513, 5000, 20000};
  const Shape shapes[] = {Shape::kSmall, Shape::kConstantCols,
                          Shape::kExact64, Shape::kFullRange};
  uint64_t seed = 1;
  for (size_t arity = 1; arity <= 5; ++arity) {
    for (Shape shape : shapes) {
      for (size_t n : row_counts) {
        for (const ExecContext* base : {&serial, &pooled}) {
          SCOPED_TRACE(testing::Message()
                       << "arity " << arity << " shape "
                       << static_cast<int>(shape) << " rows " << n
                       << (base->serial() ? " serial" : " 4 threads"));
          Relation r = ShapedRelation(shape, arity, n, seed++);
          const std::set<Tuple> ref = [&] {
            std::set<Tuple> s;
            for (size_t i = 0; i < r.NumTuples(); ++i) {
              s.insert(r.Row(i).ToTuple());
            }
            return s;
          }();
          TraceContext trace;
          const ExecContext ctx = base->WithTrace(&trace);
          r.SortDedup(ctx);
          EXPECT_TRUE(r.sorted());
          ASSERT_EQ(r.NumTuples(), ref.size());
          size_t i = 0;
          for (const Tuple& t : ref) {
            ASSERT_EQ(r.Row(i).ToTuple(), t) << "row " << i;
            ++i;
          }
          const bool packs =
              shape != Shape::kFullRange || arity == 1 || n < 2;
          EXPECT_EQ(trace.counter("sort_dedup_rows"), n);
          EXPECT_EQ(trace.counter("sort_dedup_fallback_rows"), packs ? 0 : n);
        }
      }
    }
  }
}

TEST(SortDedupKernel, SortedRelationIsANoOp) {
  Relation r = ShapedRelation(Shape::kSmall, 3, 2000, 99);
  r.SortDedup();
  ASSERT_TRUE(r.sorted());
  const std::vector<Value> before = r.ToRowMajor();
  const Value* col0 = r.Column(0);
  TraceContext trace;
  r.SortDedup(ExecContext().WithTrace(&trace));
  EXPECT_TRUE(r.sorted());
  EXPECT_EQ(r.Column(0), col0);  // Not even reallocated.
  EXPECT_EQ(r.ToRowMajor(), before);
  EXPECT_EQ(trace.counter("sort_dedup_rows"), 0u);
  // An append clears the bit, and the next SortDedup sorts again.
  r.Add({-3, -3, -3});
  EXPECT_FALSE(r.sorted());
  r.SortDedup(ExecContext().WithTrace(&trace));
  EXPECT_EQ(trace.counter("sort_dedup_rows"), r.NumTuples());
  EXPECT_EQ(r.Row(0).ToTuple(), (Tuple{-3, -3, -3}));
}

TEST(SortDedupKernel, IdentityProjectionOfASortedSetKeepsTheBit) {
  Relation r = ShapedRelation(Shape::kSmall, 2, 1000, 7);
  r.SortDedup();
  TraceContext trace;
  const ExecContext ctx = ExecContext().WithTrace(&trace);
  Relation same = r.Project({0, 1}, "P", ctx);
  EXPECT_TRUE(same.sorted());
  EXPECT_EQ(same.ToRowMajor(), r.ToRowMajor());
  EXPECT_EQ(trace.counter("sort_dedup_rows"), 0u);
  // Column 1 moved to the front over a dense range: one counting sort,
  // no SortDedup.
  Relation swapped = r.Project({1, 0}, "P", ctx);
  EXPECT_TRUE(swapped.sorted());
  EXPECT_EQ(trace.counter("sort_dedup_rows"), 0u);
  EXPECT_EQ(trace.counter("project_counting_sort_rows"), r.NumTuples());
  for (size_t i = 1; i < swapped.NumTuples(); ++i) {
    EXPECT_LT(swapped.Row(i - 1).ToTuple(), swapped.Row(i).ToTuple());
  }
}

/// A canonical set of `n` random rows of `arity` columns: values below
/// `domain`, or, when `sparse`, spread over 2^40 so no column's range is
/// dense.
Relation RandomSortedSet(size_t arity, size_t n, Value domain, bool sparse,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  Relation r("R", arity);
  Tuple t(arity);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < arity; ++c) {
      t[c] = sparse ? static_cast<Value>(rng() % (uint64_t{1} << 40))
                    : static_cast<Value>(rng() % static_cast<uint64_t>(domain));
    }
    r.Add(t);
  }
  r.SortDedup();
  return r;
}

/// `r`'s rows in the same order, with the sorted() bit cleared.
Relation UnsortedCopy(const Relation& r) {
  Relation out(r.name(), r.arity());
  out.AppendFrom(r);
  return out;
}

TEST(SortDedupKernel, CountingSortProjectMatchesTheSortPath) {
  for (size_t arity = 2; arity <= 4; ++arity) {
    for (bool sparse : {false, true}) {
      const Relation r = RandomSortedSet(arity, 3000, 12, sparse, arity);
      const Relation plain = UnsortedCopy(r);
      ASSERT_FALSE(plain.sorted());
      for (size_t lead = 1; lead < arity; ++lead) {
        std::vector<size_t> cols{lead};
        for (size_t c = 0; c < arity; ++c) {
          if (c != lead) cols.push_back(c);
        }
        TraceContext trace;
        const Relation fast =
            r.Project(cols, "P", ExecContext().WithTrace(&trace));
        const Relation ref = plain.Project(cols, "P");
        EXPECT_TRUE(fast.sorted());
        EXPECT_EQ(fast.ToRowMajor(), ref.ToRowMajor())
            << "arity " << arity << " lead " << lead << " sparse " << sparse;
        EXPECT_EQ(trace.counter("project_counting_sort_rows"),
                  sparse ? 0u : r.NumTuples())
            << "arity " << arity << " lead " << lead;
      }
    }
  }
}

/// A relation whose column 0 is nondecreasing (runs of random length up to
/// `max_run` rows; one run of all `n` when `max_run >= n`) and whose other
/// columns are random
/// within each run, with repeats: the shape of a join probed in its
/// output order. `wide` spreads column 1 over all of int64, so rows no
/// longer pack into 64 bits.
Relation GroupedRelation(size_t arity, size_t n, size_t max_run, bool wide,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  Relation r("G", arity);
  Tuple t(arity);
  Value lead = -5;
  size_t left_in_run = 0;
  for (size_t i = 0; i < n; ++i) {
    if (left_in_run == 0) {
      lead += 1 + static_cast<Value>(rng() % 3);
      left_in_run = max_run >= n ? n : 1 + rng() % max_run;
    }
    --left_in_run;
    t[0] = lead;
    for (size_t c = 1; c < arity; ++c) {
      t[c] = wide && c == 1 ? static_cast<Value>(rng())
                            : static_cast<Value>(rng() % 20);
    }
    r.Add(t);
  }
  return r;
}

std::set<Tuple> RowSet(const Relation& r) {
  std::set<Tuple> s;
  for (size_t i = 0; i < r.NumTuples(); ++i) s.insert(r.Row(i).ToTuple());
  return s;
}

void ExpectCanonicalSet(const Relation& r, const std::set<Tuple>& ref) {
  EXPECT_TRUE(r.sorted());
  ASSERT_EQ(r.NumTuples(), ref.size());
  size_t i = 0;
  for (const Tuple& t : ref) {
    ASSERT_EQ(r.Row(i).ToTuple(), t) << "row " << i;
    ++i;
  }
}

TEST(SortDedupKernel, GroupedColumnZeroSortsWithinRuns) {
  // Short runs (insertion-sorted), runs past the radix cutoff (512), one
  // run holding every row (a constant column 0), and rows too wide to
  // pack, which keep the comparator path.
  struct Case {
    size_t arity, n, max_run;
    bool wide;
  };
  const Case cases[] = {{2, 5000, 40, false},  {3, 5000, 40, false},
                        {2, 20000, 3000, false}, {1, 3000, 50, false},
                        {2, 4000, 4000, false},  {2, 3000, 30, true}};
  uint64_t seed = 3;
  for (const Case& c : cases) {
    for (const ExecContext& base :
         {ExecContext(), ExecContext(ExecOptions::Parallel(4))}) {
      SCOPED_TRACE(testing::Message() << "arity " << c.arity << " rows " << c.n
                                      << " max run " << c.max_run << " wide "
                                      << c.wide);
      Relation r = GroupedRelation(c.arity, c.n, c.max_run, c.wide, seed++);
      const std::set<Tuple> ref = RowSet(r);
      TraceContext trace;
      r.SortDedup(base.WithTrace(&trace));
      ExpectCanonicalSet(r, ref);
      EXPECT_EQ(trace.counter("sort_dedup_run_local_rows"), c.wide ? 0 : c.n);
      EXPECT_EQ(trace.counter("sort_dedup_fallback_rows"), c.wide ? c.n : 0);
    }
  }
  // A column 0 out of order anywhere takes the full sort.
  Relation r = GroupedRelation(2, 5000, 40, false, 77);
  r.Add({-100, 0});
  const std::set<Tuple> ref = RowSet(r);
  TraceContext trace;
  r.SortDedup(ExecContext().WithTrace(&trace));
  ExpectCanonicalSet(r, ref);
  EXPECT_EQ(trace.counter("sort_dedup_run_local_rows"), 0u);
}

TEST(SortDedupKernel, PrefixProjectionOfASortedSetDedupsWithoutSorting) {
  for (size_t arity = 2; arity <= 4; ++arity) {
    Relation unsorted = ShapedRelation(Shape::kSmall, arity, 3000, arity);
    Relation canonical = unsorted;
    canonical.SortDedup();
    for (size_t k = 1; k < arity; ++k) {
      SCOPED_TRACE(testing::Message() << "arity " << arity << " prefix " << k);
      std::vector<size_t> prefix(k);
      std::iota(prefix.begin(), prefix.end(), size_t{0});
      TraceContext trace;
      const ExecContext ctx = ExecContext().WithTrace(&trace);
      const Relation fast = canonical.Project(prefix, "P", ctx);
      EXPECT_EQ(trace.counter("sort_dedup_rows"), 0u);
      EXPECT_EQ(trace.counter("project_prefix_dedup_rows"),
                canonical.NumTuples());
      // The unsorted source pays the sort, and both give the same set.
      const Relation slow = unsorted.Project(prefix, "P", ctx);
      EXPECT_EQ(trace.counter("sort_dedup_rows"), unsorted.NumTuples());
      EXPECT_EQ(trace.counter("project_prefix_dedup_rows"),
                canonical.NumTuples());
      ExpectCanonicalSet(fast, RowSet(slow));
      EXPECT_EQ(fast.ToRowMajor(), slow.ToRowMajor());
    }
  }
  // An empty canonical relation projects to an empty canonical one.
  Relation empty("E", 2);
  empty.SortDedup();
  const Relation p = empty.Project({0}, "P");
  EXPECT_TRUE(p.sorted());
  EXPECT_EQ(p.NumTuples(), 0u);
}

/// Prepares `atom` against `db` traced; returns the rows and how many
/// rows the prepared relation's SortDedup was handed.
std::pair<std::vector<Tuple>, uint64_t> PrepareTraced(const Atom& atom,
                                                      const Database& db) {
  TraceContext trace;
  Result<PreparedAtom> pa =
      PrepareAtom(atom, db, ExecContext().WithTrace(&trace));
  EXPECT_TRUE(pa.ok()) << pa.status();
  EXPECT_TRUE(pa->rel.sorted());
  std::vector<Tuple> rows;
  for (size_t i = 0; i < pa->rel.NumTuples(); ++i) {
    rows.push_back(pa->rel.Row(i).ToTuple());
  }
  return {rows, trace.counter("sort_dedup_rows")};
}

TEST(SortDedupKernel, PrepareAtomPassesOnlyPlainAtomsOfSortedSources) {
  Relation raw("U", 2);
  for (const Tuple& t : std::vector<Tuple>{
           {3, 3}, {1, 1}, {2, 1}, {3, 3}, {0, 1}, {1, 1}}) {
    raw.Add(t);
  }
  Relation sorted = raw;
  sorted.set_name("S");
  sorted.SortDedup();
  Database db;
  db.PutRelation(raw);
  db.PutRelation(sorted);
  auto atom = [](const std::string& rel, std::vector<Term> args) {
    Atom a;
    a.relation = rel;
    a.args = std::move(args);
    return a;
  };
  const Term x = Term::Var("x"), y = Term::Var("y");
  const std::vector<Tuple> all = {{0, 1}, {1, 1}, {2, 1}, {3, 3}};
  const std::vector<Tuple> diag = {{1}, {3}};
  const std::vector<Tuple> to_one = {{0}, {1}, {2}};
  // Unsorted source: every shape dedups and sorts.
  EXPECT_EQ(PrepareTraced(atom("U", {x, y}), db),
            std::make_pair(all, uint64_t{6}));
  EXPECT_EQ(PrepareTraced(atom("U", {x, x}), db),
            std::make_pair(diag, uint64_t{4}));
  EXPECT_EQ(PrepareTraced(atom("U", {x, Term::Const(1)}), db),
            std::make_pair(to_one, uint64_t{4}));
  // Sorted source: the plain atom passes through; a repeat or a constant
  // still takes the sort.
  EXPECT_EQ(PrepareTraced(atom("S", {x, y}), db),
            std::make_pair(all, uint64_t{0}));
  EXPECT_EQ(PrepareTraced(atom("S", {x, x}), db),
            std::make_pair(diag, uint64_t{2}));
  EXPECT_EQ(PrepareTraced(atom("S", {x, Term::Const(1)}), db),
            std::make_pair(to_one, uint64_t{3}));
  // Variable names do not matter: every column a distinct variable is
  // the identity.
  EXPECT_EQ(PrepareTraced(atom("S", {y, x}), db),
            std::make_pair(all, uint64_t{0}));
}

TEST(Relation, ProjectDedups) {
  Relation r = MakeEdges();
  Relation p = r.Project({0}, "P");
  ASSERT_EQ(p.arity(), 1u);
  EXPECT_EQ(p.NumTuples(), 3u);  // {0, 1, 2}.
}

TEST(Relation, ProjectCanRepeatAndReorderColumns) {
  Relation r("R", 2);
  r.Add({7, 8});
  Relation p = r.Project({1, 0, 1}, "P");
  ASSERT_EQ(p.NumTuples(), 1u);
  EXPECT_EQ(p.Row(0)[0], 8);
  EXPECT_EQ(p.Row(0)[1], 7);
  EXPECT_EQ(p.Row(0)[2], 8);
}

TEST(Relation, ProjectToNullary) {
  Relation r = MakeEdges();
  Relation p = r.Project({}, "B");
  EXPECT_EQ(p.arity(), 0u);
  EXPECT_EQ(p.NumTuples(), 1u);  // "true".
  Relation empty("X", 2);
  EXPECT_EQ(empty.Project({}, "B").NumTuples(), 0u);
}

TEST(Relation, FilterKeepsMatching) {
  Relation r = MakeEdges();
  r.Filter([](TupleView t) { return t[0] == 1; });
  EXPECT_EQ(r.NumTuples(), 2u);
}

TEST(Relation, SortByColumnOrder) {
  Relation r("R", 2);
  r.Add({1, 9});
  r.Add({2, 3});
  r.Add({3, 5});
  r.SortBy({1});
  EXPECT_EQ(r.Row(0)[1], 3);
  EXPECT_EQ(r.Row(1)[1], 5);
  EXPECT_EQ(r.Row(2)[1], 9);
}

TEST(Relation, ContainsAndMax) {
  Relation r = MakeEdges();
  EXPECT_TRUE(r.Contains({2, 3}));
  EXPECT_FALSE(r.Contains({3, 2}));
  EXPECT_EQ(r.MaxValue(), 3);
  EXPECT_EQ(Relation("X", 2).MaxValue(), -1);
}

TEST(Relation, NullaryRelation) {
  Relation b("B", 0);
  EXPECT_TRUE(b.empty());
  b.AddNullary();
  EXPECT_EQ(b.NumTuples(), 1u);
  EXPECT_TRUE(b.Contains({}));
  b.Filter([](TupleView) { return false; });
  EXPECT_TRUE(b.empty());
}

TEST(Relation, SizeWeight) {
  Relation r = MakeEdges();
  r.SortDedup();
  EXPECT_EQ(r.SizeWeight(), 6u);  // 3 tuples * arity 2.
}

// ---- Copy-on-write columns -------------------------------------------------

/// A relation holding the rows of `r` in buffers of its own (no column
/// shared with `r`): the private-column reference for the shared cases.
Relation PrivateCopy(const Relation& r) {
  Relation out(r.name(), r.arity());
  const std::vector<Value> rows = r.ToRowMajor();
  out.AppendRows(rows.data(), r.NumTuples());
  if (r.sorted()) out.SortDedup();
  return out;
}

std::vector<const Value*> ColumnPointers(const Relation& r) {
  std::vector<const Value*> out;
  for (size_t c = 0; c < r.arity(); ++c) out.push_back(r.Column(c));
  return out;
}

/// Every third row kept, plus the first two: a mixed bitmap with runs.
std::vector<uint8_t> MixedKeep(size_t n) {
  std::vector<uint8_t> keep(n, 0);
  for (size_t i = 0; i < n; ++i) keep[i] = i < 2 || i % 3 == 0;
  return keep;
}

TEST(CopyOnWrite, CopySharesColumnsUntilItsFirstWrite) {
  Relation src = ShapedRelation(Shape::kSmall, 3, 3000, 5);
  src.SortDedup();
  Relation copy = src;
  EXPECT_EQ(ColumnPointers(copy), ColumnPointers(src));
  EXPECT_TRUE(copy.sorted());
  Relation assigned("X", 3);
  assigned = copy;
  EXPECT_EQ(ColumnPointers(assigned), ColumnPointers(src));
  // Reads and no-op mutators leave the sharing alone.
  copy.SortDedup();
  copy.CompactRows(std::vector<uint8_t>(copy.NumTuples(), 1));
  copy.Reserve(copy.NumTuples());
  EXPECT_EQ(ColumnPointers(copy), ColumnPointers(src));
  // The first write gives the copy its own columns; the source keeps its.
  const std::vector<const Value*> before = ColumnPointers(src);
  copy.Add({100, 100, 100});
  for (size_t c = 0; c < 3; ++c) EXPECT_NE(copy.Column(c), src.Column(c));
  EXPECT_EQ(ColumnPointers(src), before);
  EXPECT_EQ(ColumnPointers(assigned), before);
}

TEST(CopyOnWrite, EveryMutatorLeavesTheSourceAlone) {
  const Relation other = ShapedRelation(Shape::kSmall, 3, 50, 11);
  const ExecOptions four{.num_threads = 4, .morsel_size = 256};
  const ExecContext par(four);
  auto odd_first = [](TupleView t) { return t[0] % 2 != 0; };
  const std::vector<std::pair<std::string, std::function<void(Relation&)>>>
      mutators = {
          {"Add", [](Relation& r) { r.Add({1, 2, 3}); }},
          {"AddRow",
           [](Relation& r) {
             const Value row[] = {4, 5, 6};
             r.AddRow(row);
           }},
          {"AppendRows",
           [](Relation& r) {
             const Value rows[] = {1, 1, 1, 2, 2, 2};
             r.AppendRows(rows, 2);
           }},
          {"AppendFrom", [&](Relation& r) { r.AppendFrom(other); }},
          {"AppendPrefixFrom",
           [&](Relation& r) { r.AppendPrefixFrom(other, 7); }},
          {"AddRowFrom", [&](Relation& r) { r.AddRowFrom(other, 3); }},
          {"Reserve", [](Relation& r) { r.Reserve(2 * r.NumTuples() + 1); }},
          {"SortDedup", [](Relation& r) { r.SortDedup(); }},
          {"SortDedupParallel", [&](Relation& r) { r.SortDedup(par); }},
          {"SortBy", [](Relation& r) { r.SortBy({2, 0}); }},
          {"CompactRows",
           [](Relation& r) { r.CompactRows(MixedKeep(r.NumTuples())); }},
          {"Filter", [&](Relation& r) { r.Filter(odd_first); }},
          {"FilterParallel", [&](Relation& r) { r.Filter(odd_first, par); }},
      };
  for (const bool sorted : {false, true}) {
    Relation src = ShapedRelation(Shape::kSmall, 3, 20000, 3);
    if (sorted) src.SortDedup();
    const std::vector<Value> values = src.ToRowMajor();
    const std::vector<const Value*> pointers = ColumnPointers(src);
    for (const auto& [name, mutate] : mutators) {
      SCOPED_TRACE(name + (sorted ? " on a sorted source" : ""));
      Relation copy = src;
      Relation reference = PrivateCopy(src);
      mutate(copy);
      mutate(reference);
      EXPECT_EQ(src.ToRowMajor(), values);
      EXPECT_EQ(ColumnPointers(src), pointers);
      EXPECT_EQ(src.sorted(), sorted);
      // The shared copy ends exactly where a private one does.
      EXPECT_EQ(copy.ToRowMajor(), reference.ToRowMajor());
      EXPECT_EQ(copy.sorted(), reference.sorted());
    }
  }
}

TEST(CopyOnWrite, CompactRowsOfASharedColumnMatchesAPrivateOne) {
  for (const bool sorted : {false, true}) {
    Relation src = ShapedRelation(Shape::kSmall, 2, 5000, 17);
    if (sorted) src.SortDedup();
    const size_t n = src.NumTuples();
    const std::vector<std::pair<std::string, std::vector<uint8_t>>> bitmaps = {
        {"all kept", std::vector<uint8_t>(n, 1)},
        {"none kept", std::vector<uint8_t>(n, 0)},
        {"mixed", MixedKeep(n)}};
    for (const auto& [name, keep] : bitmaps) {
      SCOPED_TRACE(name);
      Relation shared = src;
      Relation owned = PrivateCopy(src);
      shared.CompactRows(keep);
      owned.CompactRows(keep);
      EXPECT_EQ(shared.NumTuples(), owned.NumTuples());
      EXPECT_EQ(shared.ToRowMajor(), owned.ToRowMajor());
      EXPECT_EQ(shared.sorted(), owned.sorted());
      // Keeping every row writes nothing, so the columns stay shared.
      EXPECT_EQ(shared.Column(0) == src.Column(0), name == "all kept");
      EXPECT_EQ(src.NumTuples(), n);
    }
  }
}

TEST(CopyOnWrite, ClonesAreCountedOnlyWhenASharedColumnIsCopied) {
  Relation src = ShapedRelation(Shape::kSmall, 2, 1000, 23);
  TraceContext trace;
  Relation copy = src;
  copy.CompactRows(MixedKeep(copy.NumTuples()));  // A gather, not a clone.
  copy.Reserve(copy.NumTuples() + 10, &trace);     // Private: no clone.
  EXPECT_EQ(trace.counter("relation_columns_cloned"), 0u);
  Relation again = src;
  again.Reserve(src.NumTuples() + 1, &trace);  // Shared: both columns.
  EXPECT_EQ(trace.counter("relation_columns_cloned"), 2u);
  EXPECT_EQ(again.ToRowMajor(), src.ToRowMajor());
}

/// Four threads each take a copy of one relation; the source is dropped,
/// then each compacts its own copy. Whichever thread compacts last finds
/// its columns unshared and writes them in place, after the others have
/// read them: the uniqueness test must order those reads first (TSan
/// checks it in CI).
TEST(CopyOnWrite, ThreadsCompactTheirOwnCopies) {
  constexpr size_t kThreads = 4;
  auto src = std::make_unique<Relation>(
      ShapedRelation(Shape::kSmall, 3, 40000, 29));
  src->SortDedup();
  const size_t n = src->NumTuples();
  std::vector<std::vector<uint8_t>> keeps(kThreads);
  std::vector<std::vector<Value>> expected(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    keeps[t].resize(n);
    for (size_t i = 0; i < n; ++i) keeps[t][i] = (i + t) % (t + 2) == 0;
    Relation owned = PrivateCopy(*src);
    owned.CompactRows(keeps[t]);
    expected[t] = owned.ToRowMajor();
  }
  std::latch copied(kThreads);
  std::latch released(1);
  std::vector<std::vector<Value>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Relation mine = *src;
      copied.count_down();
      released.wait();
      mine.CompactRows(keeps[t]);
      got[t] = mine.ToRowMajor();
    });
  }
  copied.wait();
  src.reset();
  released.count_down();
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected[t]);
}

TEST(Database, AddAndFind) {
  Database db;
  ASSERT_TRUE(db.AddRelation(MakeEdges()).ok());
  EXPECT_FALSE(db.AddRelation(MakeEdges()).ok());  // AlreadyExists.
  ASSERT_TRUE(db.Find("E").ok());
  EXPECT_EQ(db.Find("E").value()->NumTuples(), 4u);
  EXPECT_FALSE(db.Find("Nope").ok());
  EXPECT_TRUE(db.Has("E"));
}

TEST(Database, DomainSizeFromDataAndDeclaration) {
  Database db;
  db.PutRelation(MakeEdges());
  EXPECT_EQ(db.DomainSize(), 4);  // Max value 3.
  db.DeclareDomainSize(10);
  EXPECT_EQ(db.DomainSize(), 10);
}

TEST(Database, CopyIsCheapAndValueSemantic) {
  Database a;
  a.PutRelation(MakeEdges());
  Database b = a;  // O(#relations): payload pointers are shared...
  EXPECT_EQ(a.FindShared("E").get(), b.FindShared("E").get());
  // ...until one side mutates: FindMutable clones before writing.
  Result<Relation*> mut = b.FindMutable("E");
  ASSERT_TRUE(mut.ok());
  (*mut)->Add({9, 9});
  EXPECT_NE(a.FindShared("E").get(), b.FindShared("E").get());
  EXPECT_EQ(a.Find("E").value()->NumTuples(), 4u);
  EXPECT_EQ(b.Find("E").value()->NumTuples(), 5u);
  EXPECT_FALSE(a.Find("E").value()->Contains({9, 9}));

  // An unshared payload is written in place — no clone-per-write churn.
  Result<Relation*> again = b.FindMutable("E");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *mut);
}

TEST(Database, CopyAssignReplacesAndSharesPayloads) {
  Database a;
  a.PutRelation(MakeEdges());
  Database b;
  Relation r("R", 1);
  r.Add({1});
  b.PutRelation(std::move(r));
  b = a;
  EXPECT_FALSE(b.Has("R"));
  EXPECT_EQ(a.FindShared("E").get(), b.FindShared("E").get());
  // Mutating the source never leaks into the copy.
  ASSERT_TRUE(a.FindMutable("E").ok());
  a.PutRelation(Relation("E", 2));
  EXPECT_EQ(b.Find("E").value()->NumTuples(), 4u);
}

TEST(Database, DegreeCountsTuplesPerElement) {
  // Element 1 appears in tuples (1,2), (1,2)dup->once after nodedup... use
  // fresh relation: degree counts tuple membership, repeated positions once.
  Database db;
  Relation r("R", 2);
  r.Add({1, 2});
  r.Add({1, 3});
  r.Add({1, 1});  // Repeated position counts once.
  db.PutRelation(std::move(r));
  EXPECT_EQ(db.Degree(), 3u);  // Element 1 is in three tuples.
}

TEST(HashIndex, LookupByKeyColumns) {
  Relation r = MakeEdges();
  r.SortDedup();
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.Lookup({1}).size(), 1u);
  EXPECT_EQ(idx.Lookup({9}).size(), 0u);
  EXPECT_TRUE(idx.ContainsKey({2}));
  EXPECT_EQ(idx.NumKeys(), 3u);
}

TEST(HashIndex, EmptyKeyMatchesAllRows) {
  Relation r = MakeEdges();
  r.SortDedup();
  HashIndex idx(r, {});
  EXPECT_EQ(idx.Lookup({}).size(), 3u);
}

TEST(HashIndex, CompositeKey) {
  Relation r("R", 3);
  r.Add({1, 2, 3});
  r.Add({1, 2, 4});
  r.Add({1, 3, 5});
  HashIndex idx(r, {0, 1});
  EXPECT_EQ(idx.Lookup({1, 2}).size(), 2u);
  EXPECT_EQ(idx.Lookup({1, 3}).size(), 1u);
}

TEST(HashIndex, CollisionHeavyAllRowsOneKey) {
  // Every row shares one key: the CSR payload degenerates to a single fat
  // posting list; spans must still come back complete and ascending.
  constexpr size_t kRows = 20000;  // Above the sharded-build cutoff.
  Relation r("R", 2);
  for (size_t i = 0; i < kRows; ++i) r.Add({7, static_cast<Value>(i)});
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.NumKeys(), 1u);
  HashIndex::RowSpan span = idx.Lookup({7});
  ASSERT_EQ(span.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(span[i], static_cast<uint32_t>(i));
  }
  EXPECT_TRUE(idx.Lookup({8}).empty());
}

TEST(HashIndex, EmptyRelation) {
  Relation r("R", 2);
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.NumKeys(), 0u);
  EXPECT_TRUE(idx.Lookup({1}).empty());
  HashIndex all(r, {});
  EXPECT_EQ(all.NumKeys(), 0u);
  EXPECT_TRUE(all.Lookup({}).empty());
}

TEST(HashIndex, ParallelBuildBitIdenticalLayout) {
  // The determinism contract: serial and parallel builds must produce the
  // same flat arrays — not just the same lookup results — for any thread
  // count. Skewed keys keep some posting lists fat.
  constexpr size_t kRows = 40000;  // Above the parallel-build cutoff.
  Relation r("R", 2);
  uint64_t x = 88172645463325252ull;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    r.Add({static_cast<Value>(x % 512), static_cast<Value>(i)});
  }
  HashIndex serial(r, {0});
  for (int threads : {1, 2, 8}) {
    ExecOptions opts;
    opts.num_threads = threads;
    ExecContext ctx(opts);
    HashIndex par(r, {0}, ctx);
    EXPECT_EQ(par.NumKeys(), serial.NumKeys()) << threads << " threads";
    EXPECT_EQ(par.offsets(), serial.offsets()) << threads << " threads";
    EXPECT_EQ(par.row_ids(), serial.row_ids()) << threads << " threads";
    EXPECT_EQ(par.slots(), serial.slots()) << threads << " threads";
  }
}

TEST(HashIndex, RunBuildMatchesTheHashingBuilder) {
  // A sorted relation keyed on its leading columns builds from its runs;
  // the same rows without the sorted() bit take the hashing builder. The
  // two layouts must match array for array.
  struct Shape {
    const char* name;
    std::function<Tuple(size_t, std::mt19937_64&)> row;
  };
  const std::vector<Shape> shapes = {
      {"one-run", [](size_t i, std::mt19937_64&) {
         return Tuple{7, 3, static_cast<Value>(i)};
       }},
      {"all-distinct", [](size_t i, std::mt19937_64&) {
         return Tuple{static_cast<Value>(i) * 3 - 500,
                      static_cast<Value>(i % 3), 0};
       }},
      {"mixed", [](size_t, std::mt19937_64& rng) {
         return Tuple{static_cast<Value>(rng() % 2000),
                      static_cast<Value>(rng() % 4),
                      static_cast<Value>(rng() % 1000)};
       }},
  };
  for (const Shape& shape : shapes) {
    for (size_t n : {size_t{1000}, size_t{20000}}) {  // Around the cutoff.
      std::mt19937_64 rng(n);
      Relation r("R", 3);
      for (size_t i = 0; i < n; ++i) r.Add(shape.row(i, rng));
      r.SortDedup();
      const Relation plain = UnsortedCopy(r);
      for (const std::vector<size_t>& key :
           {std::vector<size_t>{0}, std::vector<size_t>{0, 1}}) {
        for (int threads : {1, 4}) {
          ExecOptions opts;
          opts.num_threads = threads;
          TraceContext trace;
          const ExecContext ctx = ExecContext(opts).WithTrace(&trace);
          const HashIndex runs(r, key, ctx);
          EXPECT_EQ(trace.counter("index_run_build_rows"), r.NumTuples());
          const HashIndex ref(plain, key, ctx);
          EXPECT_EQ(trace.counter("index_run_build_rows"), r.NumTuples());
          const std::string what = std::string(shape.name) + " n=" +
                                   std::to_string(n) + " key arity " +
                                   std::to_string(key.size()) + " threads " +
                                   std::to_string(threads);
          EXPECT_EQ(runs.NumKeys(), ref.NumKeys()) << what;
          EXPECT_EQ(runs.offsets(), ref.offsets()) << what;
          EXPECT_EQ(runs.row_ids(), ref.row_ids()) << what;
          EXPECT_EQ(runs.slots(), ref.slots()) << what;
          EXPECT_EQ(runs.tags(), ref.tags()) << what;
          EXPECT_EQ(HashIndexTestPeer::HasDenseCount(runs),
                    HashIndexTestPeer::HasDenseCount(ref))
              << what;
          EXPECT_EQ(runs.CountProbeRows(plain, key, 0, plain.NumTuples()),
                    ref.CountProbeRows(plain, key, 0, plain.NumTuples()))
              << what;
        }
      }
    }
  }
}

TEST(Dictionary, InternAndLookup) {
  Dictionary d;
  Value a = d.Intern("alice");
  Value b = d.Intern("bob");
  EXPECT_EQ(d.Intern("alice"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Lookup(a), "alice");
  EXPECT_EQ(d.Find("carol"), kBottom);
  EXPECT_EQ(d.size(), 2u);
}

TEST(Loader, ParsesFactsWithStringsAndInts) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString(
      "# comment line\n"
      "Edge 1 2\n"
      "Edge 2 3\n"
      "Person alice 30\n"
      "\n"
      "Person bob 25\n",
      &db, &dict);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(db.Find("Edge").value()->NumTuples(), 2u);
  EXPECT_EQ(db.Find("Person").value()->NumTuples(), 2u);
  EXPECT_EQ(dict.size(), 2u);  // alice, bob.
}

TEST(Loader, RejectsArityMismatch) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString("R 1 2\nR 1 2 3\n", &db, &dict);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

// --- Tag-layout edge cases ------------------------------------------------

TEST(HashIndex, TagCollisionHeavyKeys) {
  // Distinct keys engineered to share one 8-bit tag: every probe's tag
  // compare matches many slots, so hits and misses alike must be decided
  // by the per-group verify, not the tag filter. This is the layout's
  // adversarial shape — a plain Swiss table degrades to a linear scan of
  // tag matches here, and a bug in the match-bit walk or the group verify
  // shows up as wrong counts.
  const uint64_t seed = HashIndexTestPeer::KeySeed();
  const uint8_t want_tag = HashTag(HashCombine(seed, 0));
  std::vector<Value> same_tag;  // Values whose key hash carries want_tag.
  for (Value v = 0; same_tag.size() < 1200; ++v) {
    if (HashTag(HashCombine(seed, static_cast<uint64_t>(v))) == want_tag) {
      same_tag.push_back(v);
    }
  }
  // First 1000 inserted; the remaining 200 share the tag but miss.
  Relation r("R", 2);
  for (size_t i = 0; i < 1000; ++i) {
    r.Add({same_tag[i], static_cast<Value>(i)});
    r.Add({same_tag[i], static_cast<Value>(i + 1000)});  // Two rows per key.
  }
  r.SortDedup();
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.NumKeys(), 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(idx.Lookup({same_tag[i]}).size(), 2u) << "key " << same_tag[i];
  }
  for (size_t i = 1000; i < 1200; ++i) {
    EXPECT_TRUE(idx.Lookup({same_tag[i]}).empty()) << "key " << same_tag[i];
  }
  // The batched count kernel must agree with per-row lookups, on both
  // instruction-set tiers (without AVX2 the Avx2 symbol forwards).
  Relation probe("P", 1);
  for (Value v : same_tag) probe.Add({v});
  const Value* pcols[] = {probe.Column(0)};
  const uint64_t portable =
      CountProbeRowsPortable(idx, pcols, 1, 0, probe.NumTuples());
  const uint64_t avx2 = CountProbeRowsAvx2(idx, pcols, 1, 0, probe.NumTuples());
  EXPECT_EQ(portable, 2000u);
  EXPECT_EQ(avx2, portable);
}

TEST(HashIndex, CountProbeRowsNonGroupWidthSizes) {
  // Probe ranges not divisible by the SIMD group width or the batch-of-8
  // gather: the kernel tails must cover the stragglers exactly once.
  for (size_t n : {1u, 7u, 31u, 33u, 63u, 100u, 257u}) {
    Relation r("R", 2);
    for (size_t i = 0; i < n; ++i) {
      r.Add({static_cast<Value>(i), static_cast<Value>(i)});
    }
    HashIndex idx(r, {0});
    // Probe keys 0..2n-1: exactly the first n hit.
    Relation probe("P", 1);
    for (size_t i = 0; i < 2 * n; ++i) probe.Add({static_cast<Value>(i)});
    const Value* pcols[] = {probe.Column(0)};
    EXPECT_EQ(CountProbeRowsPortable(idx, pcols, 1, 0, 2 * n), n) << n;
    EXPECT_EQ(CountProbeRowsAvx2(idx, pcols, 1, 0, 2 * n), n) << n;
    // Unaligned sub-ranges (begin/end both off the batch grid).
    if (n > 3) {
      const uint64_t p = CountProbeRowsPortable(idx, pcols, 1, 3, n + 1);
      EXPECT_EQ(p, n - 3) << n;
      EXPECT_EQ(CountProbeRowsAvx2(idx, pcols, 1, 3, n + 1), p) << n;
    }
  }
}

TEST(HashIndex, DeltaBuildEmptiedGroupsOnTagPath) {
  // A delta batch that empties a key group leaves the group's tag, hash,
  // and key behind in the table. Probes walking that chain — lookups,
  // batched counts, and a later batch re-inserting the key — must skip
  // the empty group instead of matching or faulting on it.
  Relation r("R", 2);
  for (Value k = 0; k < 50; ++k) r.Add({k, k * 10});
  r.SortDedup();
  HashIndex base(r, {0});
  // Batch 1: delete every row of keys 10..19 (ten groups emptied).
  HashIndex::Delta del;
  for (uint32_t row = 10; row < 20; ++row) del.deleted_rows.push_back(row);
  Relation after_del("R", 2);
  for (Value k = 0; k < 50; ++k) {
    if (k < 10 || k >= 20) after_del.Add({k, k * 10});
  }
  after_del.SortDedup();
  auto d1 = HashIndex::DeltaBuild(base, r, after_del, del);
  ASSERT_NE(d1, nullptr);
  for (Value k = 0; k < 50; ++k) {
    const size_t want = (k >= 10 && k < 20) ? 0u : 1u;
    EXPECT_EQ(d1->Lookup({k}).size(), want) << "key " << k;
  }
  // Batch 2: re-insert key 15 (new group, same key as an emptied one).
  Relation after_ins = after_del;
  after_ins.Add({15, 999});
  HashIndex::Delta ins;
  ins.num_inserted = 1;
  auto d2 = HashIndex::DeltaBuild(*d1, after_del, after_ins, ins);
  ASSERT_NE(d2, nullptr);
  HashIndex fresh(after_ins, {0});
  Relation probe("P", 1);
  for (Value k = 0; k < 50; ++k) probe.Add({k});
  const Value* pcols[] = {probe.Column(0)};
  for (Value k = 0; k < 50; ++k) {
    EXPECT_EQ(d2->Lookup({k}).size(), fresh.Lookup({k}).size()) << "key " << k;
  }
  const uint64_t fresh_count =
      CountProbeRowsPortable(fresh, pcols, 1, 0, probe.NumTuples());
  EXPECT_EQ(CountProbeRowsPortable(*d2, pcols, 1, 0, probe.NumTuples()),
            fresh_count);
  EXPECT_EQ(CountProbeRowsAvx2(*d2, pcols, 1, 0, probe.NumTuples()),
            fresh_count);
}

TEST(TagKeySet, ScalarVsSimdBitIdentityAcrossRangeSplits) {
  // The mark kernels' contract: the portable and AVX2 tiers clear exactly
  // the same alive bytes and report the same survivor counts, for any
  // partition of the row range (1/2/8 "threads" — ParallelFor hands each
  // kernel call a disjoint range, so per-range equality is the whole
  // determinism argument).
  constexpr size_t kRows = 5000;
  Relation source("S", 1);
  Relation target("T", 2);
  uint64_t x = 424242;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (i % 3 != 0) source.Add({static_cast<Value>(x % 1000)});
    target.Add({static_cast<Value>(i % 1500), static_cast<Value>(i)});
  }
  source.SortDedup();
  target.SortDedup();
  TagKeySet set(source, {0}, /*alive=*/nullptr);
  const Value* tcols[] = {target.Column(0)};
  const size_t nt = target.NumTuples();
  for (size_t parts : {1u, 2u, 8u}) {
    std::vector<uint8_t> alive_p(nt, 1), alive_v(nt, 1);
    uint64_t live_p = 0, live_v = 0;
    const size_t chunk = (nt + parts - 1) / parts;
    for (size_t b = 0; b < nt; b += chunk) {
      const size_t e = std::min(nt, b + chunk);
      live_p += TagMarkMissesPortable(set, tcols, alive_p.data(), b, e);
      live_v += TagMarkMissesAvx2(set, tcols, alive_v.data(), b, e);
    }
    EXPECT_EQ(live_p, live_v) << parts << " parts";
    EXPECT_EQ(alive_p, alive_v) << parts << " parts";
    EXPECT_EQ(live_p, static_cast<uint64_t>(
                          std::count(alive_p.begin(), alive_p.end(), 1)))
        << parts << " parts";
  }
}

TEST(DenseKeySet, AcceptsDenseDeclinesSparse) {
  constexpr size_t kN = 4096;
  std::vector<Value> dense_col(kN), sparse_col(kN);
  for (size_t i = 0; i < kN; ++i) {
    dense_col[i] = static_cast<Value>(100 + i);  // Range == count.
    // Range ~2^26 at ~kN alive values: far beyond the sparsity cap.
    sparse_col[i] = static_cast<Value>(i * 16384);
  }
  DenseKeySet dense;
  EXPECT_TRUE(dense.Build(dense_col.data(), nullptr, kN));
  EXPECT_TRUE(dense.Contains(100));
  EXPECT_TRUE(dense.Contains(static_cast<Value>(100 + kN - 1)));
  EXPECT_FALSE(dense.Contains(99));
  EXPECT_FALSE(dense.Contains(static_cast<Value>(100 + kN)));
  DenseKeySet sparse;
  EXPECT_FALSE(sparse.Build(sparse_col.data(), nullptr, kN));
  // The empty set builds (trivially dense) and contains nothing.
  DenseKeySet empty;
  EXPECT_TRUE(empty.Build(dense_col.data(), nullptr, 0));
  EXPECT_FALSE(empty.Contains(0));
}

TEST(DenseKeySet, MarkMissesMatchesTagKeySet) {
  // The dense bitmap is an exact drop-in for the tag table on single-
  // column keys: same cleared bytes, same survivor count.
  constexpr size_t kRows = 3000;
  Relation source("S", 1);
  Relation target("T", 2);
  uint64_t x = 77;
  std::vector<uint8_t> s_alive;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    source.Add({static_cast<Value>(x % 800)});
    s_alive.push_back(i % 5 == 0 ? 0 : 1);  // Some dead source rows.
    target.Add({static_cast<Value>(i % 1200), static_cast<Value>(i)});
  }
  const size_t nt = target.NumTuples();
  DenseKeySet dense;
  ASSERT_TRUE(dense.Build(source.Column(0), s_alive.data(), kRows));
  TagKeySet tags(source, {0}, s_alive.data());
  const Value* tcols[] = {target.Column(0)};
  std::vector<uint8_t> alive_d(nt, 1), alive_t(nt, 1);
  const uint64_t live_d = dense.MarkMisses(target.Column(0), alive_d.data(),
                                           0, nt);
  const uint64_t live_t = tags.MarkMisses(tcols, alive_t.data(), 0, nt);
  EXPECT_EQ(live_d, live_t);
  EXPECT_EQ(alive_d, alive_t);
}

// The dense-domain count table must be an invisible optimization: same
// counts as the tag-probed kernels when it engages (dense key range) and
// a clean decline when the range is sparse or huge.
TEST(HashIndex, DenseCountTableMatchesHashKernels) {
  // Dense: 900 distinct keys covering most of [0, 1000), duplicated.
  Relation dense_rel("D", 2);
  for (Value v = 0; v < 1000; ++v) {
    if (v % 10 == 3) continue;  // A few holes keep the range non-trivial.
    dense_rel.Add({v, v * 2});
    if (v % 4 == 0) dense_rel.Add({v, v * 2 + 1});
  }
  // Sparse: same key count, spread over a range far past the dense cap.
  Relation sparse_rel("S", 2);
  for (Value v = 0; v < 1000; ++v) sparse_rel.Add({v * 1000003, v});
  // Probes straddle the key range on both ends and include misses.
  Relation probes("P", 1);
  for (Value v = -7; v < 1200; ++v) probes.Add({v});
  for (Value v = -7; v < 1200; ++v) probes.Add({v * 1000003});
  const std::vector<size_t> pc = {0};
  const Value* pcols[1] = {probes.Column(0)};
  for (const Relation* rel : {&dense_rel, &sparse_rel}) {
    HashIndex idx(*rel, {0});
    EXPECT_EQ(HashIndexTestPeer::HasDenseCount(idx), rel == &dense_rel);
    const uint64_t got = idx.CountProbeRows(probes, pc, 0, probes.NumTuples());
    // The kernel free functions bypass the dense table, so this equality
    // is dense-vs-hash, not dense-vs-itself.
    EXPECT_EQ(got,
              CountProbeRowsPortable(idx, pcols, 1, 0, probes.NumTuples()));
    EXPECT_EQ(got, CountProbeRowsAvx2(idx, pcols, 1, 0, probes.NumTuples()));
    uint64_t manual = 0;
    for (size_t i = 0; i < probes.NumTuples(); ++i) {
      manual += idx.Lookup({probes.Column(0)[i]}).count;
    }
    EXPECT_EQ(got, manual);
  }
}

}  // namespace
}  // namespace fgq
