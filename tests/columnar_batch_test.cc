// Unit suite for the columnar (SoA) ElementBatch layer: ColumnVector type
// latching and null backfill, the validity bitmap under attribute masking,
// selection-vector narrowing, the sp/control boundary (specials) index, and
// the AoS <-> SoA round-trip identity that makes the columnar form a pure
// optimization (DecayToRows reproduces the exact element sequence).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "stream/column_vector.h"
#include "stream/element_batch.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;
using sptest::MakeTuple;

// ---- ColumnVector ----------------------------------------------------

TEST(ColumnVectorTest, TypeLatchesOnFirstNonNullAndBackfills) {
  ColumnVector col;
  EXPECT_EQ(col.type(), ValueType::kNull);
  col.AppendNull();
  col.AppendNull();
  EXPECT_EQ(col.type(), ValueType::kNull);  // all-null stays untyped
  ASSERT_TRUE(col.TryAppend(Value(int64_t{42})));
  EXPECT_EQ(col.type(), ValueType::kInt64);
  ASSERT_EQ(col.size(), 3u);
  // The leading nulls read back as nulls despite the late latch.
  EXPECT_TRUE(col.ValueAt(0).is_null());
  EXPECT_TRUE(col.ValueAt(1).is_null());
  ASSERT_TRUE(col.ValueAt(2).is_int64());
  EXPECT_EQ(col.ValueAt(2).int64(), 42);
}

TEST(ColumnVectorTest, TypeConflictRejectsWithoutStateChange) {
  ColumnVector col;
  ASSERT_TRUE(col.TryAppend(Value(int64_t{7})));
  EXPECT_TRUE(col.Accepts(Value(int64_t{8})));
  EXPECT_TRUE(col.Accepts(Value::Null()));
  EXPECT_FALSE(col.Accepts(Value("oops")));
  EXPECT_FALSE(col.TryAppend(Value("oops")));
  EXPECT_FALSE(col.TryAppend(Value(1.5)));
  EXPECT_FALSE(col.TryAppend(Value(true)));
  // Rejections left the column untouched.
  EXPECT_EQ(col.size(), 1u);
  EXPECT_EQ(col.type(), ValueType::kInt64);
  EXPECT_EQ(col.ValueAt(0).int64(), 7);
}

TEST(ColumnVectorTest, StringArenaRoundTripsWithNulls) {
  ColumnVector col;
  col.AppendNull();
  ASSERT_TRUE(col.TryAppend(Value("alpha")));
  ASSERT_TRUE(col.TryAppend(Value("")));
  col.AppendNull();
  ASSERT_TRUE(col.TryAppend(Value(std::string(300, 'x'))));
  EXPECT_EQ(col.type(), ValueType::kString);
  ASSERT_EQ(col.size(), 5u);
  EXPECT_TRUE(col.ValueAt(0).is_null());
  EXPECT_EQ(col.StringAt(1), "alpha");
  EXPECT_EQ(col.StringAt(2), "");
  EXPECT_TRUE(col.ValueAt(3).is_null());
  EXPECT_EQ(col.ValueAt(4).str(), std::string(300, 'x'));
}

TEST(ColumnVectorTest, DoubleAndBoolRoundTripExactly) {
  ColumnVector dcol;
  ASSERT_TRUE(dcol.TryAppend(Value(2.25)));
  ASSERT_TRUE(dcol.ValueAt(0).is_double());
  EXPECT_EQ(dcol.ValueAt(0).dbl(), 2.25);

  ColumnVector bcol;
  ASSERT_TRUE(bcol.TryAppend(Value(true)));
  ASSERT_TRUE(bcol.TryAppend(Value(false)));
  ASSERT_TRUE(bcol.ValueAt(0).is_bool());
  EXPECT_TRUE(bcol.ValueAt(0).boolean());
  EXPECT_FALSE(bcol.ValueAt(1).boolean());
}

TEST(ColumnVectorTest, SetNullMasksWithoutDisturbingNeighbors) {
  ColumnVector col;
  for (int64_t i = 0; i < 130; ++i) {  // spans three validity words
    ASSERT_TRUE(col.TryAppend(Value(i)));
  }
  col.SetNull(0);
  col.SetNull(64);   // first bit of the second word
  col.SetNull(129);
  for (size_t r = 0; r < 130; ++r) {
    const bool masked = r == 0 || r == 64 || r == 129;
    EXPECT_EQ(col.IsValid(r), !masked) << "row " << r;
    EXPECT_EQ(col.ValueAt(r).is_null(), masked) << "row " << r;
    if (!masked) {
      EXPECT_EQ(col.ValueAt(r).int64(), static_cast<int64_t>(r));
    }
  }
}

// ---- ElementBatch: columnar building and decay -----------------------

std::vector<StreamElement> MixedSequence() {
  std::vector<StreamElement> seq;
  seq.emplace_back(MakeSp("S", {1, 2}, 10));
  seq.emplace_back(MakeTuple(1, {5, 50}, 11));
  seq.emplace_back(MakeTuple(2, {6, 60}, 12));
  seq.emplace_back(MakeSp("S", {2, 3}, 20));
  seq.emplace_back(MakeSp("S", {4}, 20));  // same sp-batch, two sps
  seq.emplace_back(MakeTuple(3, {7, 70}, 21));
  seq.emplace_back(MakeSp("S", {5}, 30));  // trailing sp, after all rows
  return seq;
}

std::vector<std::string> Render(const std::vector<StreamElement>& elems) {
  std::vector<std::string> out;
  out.reserve(elems.size());
  for (const StreamElement& e : elems) out.push_back(e.ToString());
  return out;
}

TEST(ColumnarBatchTest, RoundTripIdentityWithBoundaryIndex) {
  const std::vector<StreamElement> seq = MixedSequence();

  ElementBatch rows(seq);  // AoS reference
  ElementBatch batch;
  batch.BeginColumnar();
  for (const StreamElement& e : seq) batch.Append(e);

  ASSERT_TRUE(batch.is_columnar());
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.num_columns(), 2u);
  EXPECT_EQ(batch.size(), seq.size());

  // The sp-boundary index anchors each special before its original row.
  const std::vector<ElementBatch::Special>& sp = batch.specials();
  ASSERT_EQ(sp.size(), 4u);
  EXPECT_EQ(sp[0].before_row, 0u);
  EXPECT_EQ(sp[1].before_row, 2u);
  EXPECT_EQ(sp[2].before_row, 2u);  // tie keeps insertion order
  EXPECT_EQ(sp[3].before_row, 3u);  // == num_rows: after every row

  // Tuples round-trip exactly through MaterializeTuple.
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EXPECT_EQ(batch.MaterializeTuple(r).ToString(),
              seq[r == 0 ? 1 : r == 1 ? 2 : 5].tuple().ToString());
  }

  // Decay reproduces the exact AoS sequence (order, kinds, values).
  EXPECT_EQ(Render(batch.elements()), Render(rows.elements()));
  EXPECT_FALSE(batch.is_columnar());
}

TEST(ColumnarBatchTest, ArityMismatchDecaysAndKeepsAllElements) {
  ElementBatch batch;
  batch.BeginColumnar();
  batch.push_back(StreamElement(MakeTuple(1, {1, 2}, 1)));
  batch.push_back(StreamElement(MakeTuple(2, {3}, 2)));  // arity 1 != 2
  EXPECT_FALSE(batch.is_columnar());
  ASSERT_EQ(batch.elements().size(), 2u);
  EXPECT_EQ(batch.elements()[0].tuple().values.size(), 2u);
  EXPECT_EQ(batch.elements()[1].tuple().values.size(), 1u);
}

TEST(ColumnarBatchTest, TypeConflictDecaysAndKeepsAllElements) {
  ElementBatch batch;
  batch.BeginColumnar();
  batch.push_back(StreamElement(MakeTuple(1, {1}, 1)));
  Tuple t(0, 2, {Value("str")}, 2);  // kString into a latched kInt64 column
  batch.push_back(StreamElement(std::move(t)));
  EXPECT_FALSE(batch.is_columnar());
  ASSERT_EQ(batch.elements().size(), 2u);
  EXPECT_EQ(batch.elements()[0].tuple().values[0].int64(), 1);
  EXPECT_EQ(batch.elements()[1].tuple().values[0].str(), "str");
}

TEST(ColumnarBatchTest, NullValuesNeverForceDecay) {
  ElementBatch batch;
  batch.BeginColumnar();
  batch.push_back(StreamElement(Tuple(0, 1, {Value::Null(), Value(1)}, 1)));
  batch.push_back(StreamElement(Tuple(0, 2, {Value("s"), Value::Null()}, 2)));
  ASSERT_TRUE(batch.is_columnar());
  EXPECT_EQ(batch.column(0).type(), ValueType::kString);
  EXPECT_EQ(batch.column(1).type(), ValueType::kInt64);
  const std::vector<StreamElement>& elems = batch.elements();
  EXPECT_TRUE(elems[0].tuple().values[0].is_null());
  EXPECT_EQ(elems[1].tuple().values[0].str(), "s");
  EXPECT_TRUE(elems[1].tuple().values[1].is_null());
}

TEST(ColumnarBatchTest, SelectionNarrowsWithoutCompaction) {
  ElementBatch batch;
  batch.BeginColumnar();
  for (int64_t i = 0; i < 6; ++i) {
    if (i == 2) batch.Append(StreamElement(MakeSp("S", {1}, 100)));
    batch.push_back(StreamElement(MakeTuple(i, {i * 10}, i + 1)));
  }
  ASSERT_EQ(batch.num_rows(), 6u);
  batch.SetSelection({1, 2, 4});  // drop rows 0, 3, 5
  EXPECT_EQ(batch.num_live_rows(), 3u);
  EXPECT_EQ(batch.live_row(0), 1u);
  EXPECT_EQ(batch.live_row(2), 4u);
  EXPECT_EQ(batch.size(), 3u + 1u);  // live rows + the sp

  // Rows were never moved: original indexes still address the columns and
  // the specials anchor (before row 2) is still valid.
  EXPECT_EQ(batch.column(0).Int64At(4), 40);

  // Decay keeps only selected rows, sp still ahead of original row 2.
  const std::vector<StreamElement>& elems = batch.elements();
  ASSERT_EQ(elems.size(), 4u);
  EXPECT_EQ(elems[0].tuple().values[0].int64(), 10);  // row 1
  EXPECT_TRUE(elems[1].is_sp());
  EXPECT_EQ(elems[2].tuple().values[0].int64(), 20);  // row 2
  EXPECT_EQ(elems[3].tuple().values[0].int64(), 40);  // row 4
}

TEST(ColumnarBatchTest, EmptySelectionLeavesOnlySpecials) {
  ElementBatch batch;
  batch.BeginColumnar();
  batch.Append(StreamElement(MakeSp("S", {1}, 5)));
  batch.push_back(StreamElement(MakeTuple(1, {1}, 6)));
  batch.SetSelection({});
  EXPECT_EQ(batch.num_live_rows(), 0u);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch.empty());  // the sp still ships
  const std::vector<StreamElement>& elems = batch.elements();
  ASSERT_EQ(elems.size(), 1u);
  EXPECT_TRUE(elems[0].is_sp());
}

TEST(ColumnarBatchTest, CountLiveMatchesWithoutMaterializing) {
  ElementBatch batch;
  batch.BeginColumnar();
  for (const StreamElement& e : MixedSequence()) batch.Append(e);
  batch.SetSelection({0, 2});
  int64_t tuples = 0, sps = 0;
  batch.CountLive(&tuples, &sps);
  EXPECT_TRUE(batch.is_columnar());  // counting did not decay
  EXPECT_EQ(tuples, 2);
  EXPECT_EQ(sps, 4);
}

TEST(ColumnarBatchTest, MemoryBytesShrinksVsRowRepresentation) {
  // Wide int tuples: the SoA form must retain substantially fewer bytes
  // than one StreamElement (tagged variant + vector<Value>) per tuple.
  std::vector<StreamElement> seq;
  for (int64_t i = 0; i < 512; ++i) {
    seq.push_back(StreamElement(MakeTuple(i, {i, i + 1, i + 2, i + 3}, i)));
  }
  ElementBatch rows(seq);
  (void)rows.elements();
  ElementBatch cols;
  cols.BeginColumnar();
  for (const StreamElement& e : seq) cols.Append(e);
  ASSERT_TRUE(cols.is_columnar());
  EXPECT_LT(cols.MemoryBytes() * 2, rows.MemoryBytes());
}

// ---- collect-mode emission regression --------------------------------
//
// The batch>1 regression this layer fixes (docs/PERFORMANCE.md): operator
// output used to be re-wrapped element-by-element into StreamElements and
// re-collected per element. Columnar batches must now flow through a
// select+project chain AND into the CollectorSink as whole columnar
// chunks, with the sink retaining SoA bytes — not one StreamElement per
// tuple — until someone actually asks for the row view.
TEST(ColumnarBatchTest, PipelineRetainsColumnarChunksEndToEnd) {
  RoleCatalog roles;
  const std::vector<RoleId> ids = roles.RegisterSyntheticRoles(2);
  StreamCatalog streams;
  ExecContext ctx{&roles, &streams};

  constexpr size_t kTuples = 4096;
  std::vector<StreamElement> input;
  input.reserve(kTuples + kTuples / 64 + 1);
  for (size_t i = 0; i < kTuples; ++i) {
    if (i % 64 == 0) {
      input.emplace_back(MakeSp("s", {ids[0]}, static_cast<Timestamp>(i)));
    }
    input.push_back(StreamElement(MakeTuple(
        static_cast<TupleId>(i),
        {static_cast<int64_t>(i % 97), static_cast<int64_t>(i),
         static_cast<int64_t>(i) * 3},
        static_cast<Timestamp>(i))));
  }

  Pipeline pipeline(&ctx);
  auto* src = pipeline.Add<PushSource>("src");
  auto* sel = pipeline.Add<SaSelect>(Expr::Compare(
      Expr::CmpOp::kGe, Expr::Column(1), Expr::Literal(Value(0))));
  auto* proj = pipeline.Add<SaProject>(
      std::vector<int>{0, 2},
      MakeSchema("s", {Field{"a", ValueType::kInt64},
                       Field{"b", ValueType::kInt64},
                       Field{"c", ValueType::kInt64}}));
  auto* sink = pipeline.Add<CollectorSink>();
  src->AddOutput(sel);
  sel->AddOutput(proj);
  proj->AddOutput(sink);
  const size_t n = input.size();
  FeedToEnd({{src, std::move(input)}}, /*batch_size=*/256);
  EXPECT_EQ(src->metrics().batches_in, static_cast<int64_t>((n + 255) / 256));

  // Inspect BEFORE any elements() call — that decays the chunks by design.
  EXPECT_GE(sink->columnar_chunks(), kTuples / 256 - 1);
  const size_t columnar_bytes = sink->RetainedBytes();

  // Row-representation floor for the same payload: one StreamElement per
  // tuple alone dwarfs the two live int64 columns + metadata per row.
  const size_t row_floor = kTuples * sizeof(StreamElement);
  EXPECT_LT(columnar_bytes, row_floor)
      << "collect path re-materialized rows: " << columnar_bytes
      << " bytes retained for " << kTuples << " tuples";

  // The row view is still available, intact and in order, afterwards.
  std::vector<Tuple> tuples = sink->Tuples();
  ASSERT_EQ(tuples.size(), kTuples);
  EXPECT_EQ(tuples[10].values.size(), 2u);
  EXPECT_EQ(tuples[10].values[1].int64(), 30);
}

}  // namespace
}  // namespace spstream
