// Property-based differential fuzz for the columnar (SoA) execution layer.
//
// Every case generates a seeded-random punctuated stream over a random
// schema (int64/double/string/bool columns, null-heavy, occasional
// type-chaos rows that force mid-batch decay) and asserts the columnar
// kernels produce EXACTLY the element sequence of the scalar per-element
// path on the same input:
//
//  * SaSelect / SaProject / SsOperator (with attribute masking) and a
//    chained SS -> select -> project plan, driven at random batch sizes
//    against batch-per-poll = 1;
//  * SaJoinNl fed by hand with identical port interleavings, one-element
//    row PushBatch calls vs columnar PushBatch (the join has no columnar
//    kernel, so this pins the decay of columnar input);
//  * VectorPredicate::Test vs Expr::EvalBool on random predicate trees,
//    DISTANCE trees included (and SaSelect over them);
//  * random ascending selection vectors, DecayToRows vs a hand-built
//    expected interleave of live rows and specials.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/sa_project.h"
#include "exec/sa_select.h"
#include "exec/sajoin.h"
#include "exec/ss_operator.h"
#include "exec/vector_eval.h"
#include "stream/element_batch.h"
#include "test_util.h"

namespace spstream {
namespace {

using sptest::MakeSp;

constexpr size_t kCasesPerSuite = 30;

std::vector<std::string> Render(const std::vector<StreamElement>& elems) {
  std::vector<std::string> out;
  out.reserve(elems.size());
  for (const StreamElement& e : elems) out.push_back(e.ToString());
  return out;
}

/// Sequence equality with a first-divergence report (the full sequences
/// are long and gtest's default diff truncates past the interesting spot).
void ExpectSameSequence(const std::vector<std::string>& got,
                        const std::vector<std::string>& want,
                        const std::string& context) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i])
        << context << ": first divergence at element " << i << " (got "
        << got.size() << " elements, want " << want.size() << ")";
  }
  ASSERT_EQ(got.size(), want.size())
      << context << ": sequences agree on the first " << n << " elements";
}

/// Batch-per-poll for one case: random by default; CI's kernel-matrix job
/// pins it via SPSTREAM_BATCH_SIZE (1 degenerates every poll to the row
/// transport, proving the scalar path against itself).
size_t RandomBatchSize(Rng* rng) {
  if (const char* env = std::getenv("SPSTREAM_BATCH_SIZE")) {
    const size_t size = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    if (size > 0) return size;
  }
  constexpr size_t kSizes[] = {2, 3, 7, 64, 1024};
  return kSizes[rng->NextBounded(5)];
}

// ---- random schema / stream generation -------------------------------

Value RandomValueOfType(Rng* rng, ValueType type, double null_p) {
  if (rng->NextDouble() < null_p) return Value::Null();
  switch (type) {
    case ValueType::kInt64:
      return Value(static_cast<int64_t>(rng->NextBounded(20)) - 5);
    case ValueType::kDouble:
      return Value(static_cast<double>(rng->NextBounded(40)) * 0.5 - 5.0);
    case ValueType::kString: {
      std::string s;
      const size_t len = rng->NextBounded(6);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->NextBounded(4)));
      }
      return Value(std::move(s));
    }
    case ValueType::kBool:
      return Value(rng->NextBool());
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

struct RandomSchema {
  std::vector<ValueType> col_types;
  SchemaPtr schema;
  double null_p = 0.0;
  bool type_chaos = false;  // rows occasionally ignore col_types
};

RandomSchema MakeRandomSchema(Rng* rng, const std::string& stream) {
  constexpr ValueType kTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                  ValueType::kString, ValueType::kBool};
  RandomSchema rs;
  const size_t ncols = 1 + rng->NextBounded(4);
  std::vector<Field> fields;
  for (size_t c = 0; c < ncols; ++c) {
    rs.col_types.push_back(kTypes[rng->NextBounded(4)]);
    fields.push_back(
        Field{std::string(1, static_cast<char>('a' + c)), rs.col_types[c]});
  }
  rs.schema = MakeSchema(stream, fields);
  rs.null_p = rng->NextBool(0.3) ? 0.4 : 0.05;  // null-heavy or sparse
  rs.type_chaos = rng->NextBool(0.15);
  return rs;
}

Tuple RandomTuple(Rng* rng, const RandomSchema& rs, TupleId tid,
                  Timestamp ts) {
  std::vector<Value> vals;
  vals.reserve(rs.col_types.size());
  for (ValueType t : rs.col_types) {
    if (rs.type_chaos && rng->NextBool(0.1)) {
      t = rng->NextBool() ? ValueType::kString : ValueType::kInt64;
    }
    vals.push_back(RandomValueOfType(rng, t, rs.null_p));
  }
  return Tuple(0, tid, std::move(vals), ts);
}

/// Random sp for `stream`: whole-tuple or attribute-granular (driving the
/// masking path), positive or negative, roles from a small pool.
SecurityPunctuation RandomSp(Rng* rng, const std::string& stream,
                             const RandomSchema& rs,
                             const std::vector<RoleId>& roles,
                             Timestamp ts) {
  Pattern attr = Pattern::Any();
  if (rng->NextBool(0.4) && !rs.col_types.empty()) {
    attr = Pattern::Literal(std::string(
        1, static_cast<char>('a' + rng->NextBounded(rs.col_types.size()))));
  }
  const Sign sign = rng->NextBool(0.25) ? Sign::kNegative : Sign::kPositive;
  SecurityPunctuation sp(Pattern::Literal(stream), Pattern::Any(),
                         std::move(attr), Pattern::Any(), sign,
                         /*immutable=*/false, ts);
  std::vector<RoleId> picked;
  const size_t n = 1 + rng->NextBounded(3);
  for (size_t i = 0; i < n; ++i) {
    picked.push_back(roles[rng->NextBounded(roles.size())]);
  }
  sp.SetResolvedRoles(RoleSet::FromIds(picked));
  return sp;
}

std::vector<StreamElement> RandomStream(Rng* rng, const RandomSchema& rs,
                                        const std::string& stream,
                                        const std::vector<RoleId>& roles,
                                        size_t n_tuples) {
  std::vector<StreamElement> out;
  Timestamp ts = 1;
  TupleId tid = 1;
  size_t left_in_segment = 0;
  for (size_t i = 0; i < n_tuples; ++i) {
    if (left_in_segment == 0) {
      ts += 1;
      const size_t sps = 1 + rng->NextBounded(2);  // sp-batches of 1..2
      for (size_t s = 0; s < sps; ++s) {
        out.emplace_back(RandomSp(rng, stream, rs, roles, ts));
      }
      left_in_segment = 1 + rng->NextBounded(8);
    }
    out.emplace_back(RandomTuple(rng, rs, tid++, ts));
    --left_in_segment;
    if (rng->NextBool(0.3)) ts += 1;  // ts advances within segments too
  }
  return out;
}

ExprPtr RandomPredicate(Rng* rng, const RandomSchema& rs, int depth) {
  if (depth > 0 && rng->NextBool(0.5)) {
    switch (rng->NextBounded(3)) {
      case 0:
        return Expr::And(RandomPredicate(rng, rs, depth - 1),
                         RandomPredicate(rng, rs, depth - 1));
      case 1:
        return Expr::Or(RandomPredicate(rng, rs, depth - 1),
                        RandomPredicate(rng, rs, depth - 1));
      default:
        return Expr::Not(RandomPredicate(rng, rs, depth - 1));
    }
  }
  constexpr Expr::CmpOp kOps[] = {Expr::CmpOp::kEq, Expr::CmpOp::kNe,
                                  Expr::CmpOp::kLt, Expr::CmpOp::kLe,
                                  Expr::CmpOp::kGt, Expr::CmpOp::kGe};
  const size_t col = rng->NextBounded(rs.col_types.size());
  // Literal of the column's type most of the time; sometimes a cross-type
  // literal to exercise the rank-ordered comparison path.
  const ValueType lit_type =
      rng->NextBool(0.2)
          ? (rng->NextBool() ? ValueType::kString : ValueType::kInt64)
          : rs.col_types[col];
  return Expr::Compare(kOps[rng->NextBounded(6)],
                       Expr::Column(static_cast<int>(col)),
                       Expr::Literal(RandomValueOfType(rng, lit_type, 0.1)));
}

/// An operand of DISTANCE: a column or literal of any type (nulls and
/// strings read as 0, bools as 0/1), a comparison (a bool), or a nested
/// DISTANCE.
ExprPtr RandomDistanceOperand(Rng* rng, const RandomSchema& rs, int depth) {
  constexpr ValueType kTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                  ValueType::kString, ValueType::kBool};
  switch (rng->NextBounded(depth > 0 ? 5 : 4)) {
    case 0:
    case 1:
      return Expr::Column(static_cast<int>(
          rng->NextBounded(rs.col_types.size())));
    case 2:
      return Expr::Literal(
          RandomValueOfType(rng, kTypes[rng->NextBounded(4)], 0.1));
    case 3:
      return RandomPredicate(rng, rs, 0);
    default:
      return Expr::Distance(RandomDistanceOperand(rng, rs, depth - 1),
                            RandomDistanceOperand(rng, rs, depth - 1),
                            RandomDistanceOperand(rng, rs, depth - 1),
                            RandomDistanceOperand(rng, rs, depth - 1));
  }
}

/// The region-query shape DISTANCE(...) <op> literal, sometimes the
/// literal on the left, sometimes a bare DISTANCE (EvalBool truthiness),
/// sometimes joined with an ordinary random predicate.
ExprPtr RandomDistancePredicate(Rng* rng, const RandomSchema& rs) {
  ExprPtr dist = Expr::Distance(RandomDistanceOperand(rng, rs, 1),
                                RandomDistanceOperand(rng, rs, 1),
                                RandomDistanceOperand(rng, rs, 1),
                                RandomDistanceOperand(rng, rs, 1));
  if (rng->NextBool(0.1)) return dist;
  constexpr Expr::CmpOp kOps[] = {Expr::CmpOp::kEq, Expr::CmpOp::kNe,
                                  Expr::CmpOp::kLt, Expr::CmpOp::kLe,
                                  Expr::CmpOp::kGt, Expr::CmpOp::kGe};
  constexpr ValueType kLitTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                     ValueType::kInt64, ValueType::kDouble,
                                     ValueType::kString};
  ExprPtr lit = Expr::Literal(
      RandomValueOfType(rng, kLitTypes[rng->NextBounded(5)], 0.05));
  const Expr::CmpOp op = kOps[rng->NextBounded(6)];
  ExprPtr cmp = rng->NextBool(0.8) ? Expr::Compare(op, dist, lit)
                                   : Expr::Compare(op, lit, dist);
  if (rng->NextBool(0.2)) return Expr::And(cmp, RandomPredicate(rng, rs, 1));
  return cmp;
}

// ---- drivers ---------------------------------------------------------

/// RunUnary with an explicit batch-per-poll (1 = the scalar reference).
template <typename MakeOp>
std::vector<std::string> RunChainRendered(ExecContext* ctx,
                                          std::vector<StreamElement> input,
                                          MakeOp&& make_op,
                                          size_t batch_per_poll) {
  Pipeline pipeline(ctx);
  auto* src = pipeline.Add<SourceOperator>("src", std::move(input));
  std::vector<Operator*> ops = make_op(&pipeline);
  auto* sink = pipeline.Add<CollectorSink>();
  Operator* prev = src;
  for (Operator* op : ops) {
    prev->AddOutput(op);
    prev = op;
  }
  prev->AddOutput(sink);
  pipeline.Run(batch_per_poll);
  return Render(sink->elements());
}

class ColumnarFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ids_ = roles_.RegisterSyntheticRoles(6);
    ctx_ = ExecContext{&roles_, &streams_};
  }
  RoleCatalog roles_;
  StreamCatalog streams_;
  std::vector<RoleId> ids_;
  ExecContext ctx_;
};

TEST_F(ColumnarFuzzTest, SelectKernelMatchesScalarPath) {
  for (size_t seed = 0; seed < kCasesPerSuite; ++seed) {
    Rng rng(7000 + seed);
    const RandomSchema rs = MakeRandomSchema(&rng, "s");
    const auto input = RandomStream(&rng, rs, "s", ids_, 200);
    const ExprPtr pred = RandomPredicate(&rng, rs, 2);
    const size_t batch = RandomBatchSize(&rng);
    auto chain = [&](Pipeline* p) {
      return std::vector<Operator*>{p->Add<SaSelect>(pred)};
    };
    ExpectSameSequence(
        RunChainRendered(&ctx_, input, chain, batch),
        RunChainRendered(&ctx_, input, chain, 1),
        "seed " + std::to_string(seed) + " batch " + std::to_string(batch));
  }
}

TEST_F(ColumnarFuzzTest, ProjectKernelMatchesScalarPath) {
  for (size_t seed = 0; seed < kCasesPerSuite; ++seed) {
    Rng rng(8000 + seed);
    const RandomSchema rs = MakeRandomSchema(&rng, "s");
    const auto input = RandomStream(&rng, rs, "s", ids_, 200);
    std::vector<int> keep;
    const size_t n = 1 + rng.NextBounded(rs.col_types.size());
    for (size_t i = 0; i < n; ++i) {
      // Occasionally repeat or exceed the arity (null-column path).
      keep.push_back(static_cast<int>(
          rng.NextBounded(rs.col_types.size() + (rng.NextBool(0.1) ? 1 : 0))));
    }
    const size_t batch = RandomBatchSize(&rng);
    auto chain = [&](Pipeline* p) {
      return std::vector<Operator*>{p->Add<SaProject>(keep, rs.schema)};
    };
    ExpectSameSequence(
        RunChainRendered(&ctx_, input, chain, batch),
        RunChainRendered(&ctx_, input, chain, 1),
        "seed " + std::to_string(seed) + " batch " + std::to_string(batch));
  }
}

TEST_F(ColumnarFuzzTest, SsKernelMatchesScalarPathWithMasking) {
  for (size_t seed = 0; seed < kCasesPerSuite; ++seed) {
    Rng rng(9000 + seed);
    const RandomSchema rs = MakeRandomSchema(&rng, "s");
    const auto input = RandomStream(&rng, rs, "s", ids_, 200);
    SsOptions opts;
    opts.stream_name = "s";
    opts.schema = rs.schema;
    opts.mask_attributes = rng.NextBool();
    opts.use_predicate_index = rng.NextBool();
    opts.predicates = {RoleSet::FromIds({ids_[rng.NextBounded(6)],
                                         ids_[rng.NextBounded(6)]})};
    const size_t batch = RandomBatchSize(&rng);
    auto chain = [&](Pipeline* p) {
      return std::vector<Operator*>{p->Add<SsOperator>(opts)};
    };
    ExpectSameSequence(
        RunChainRendered(&ctx_, input, chain, batch),
        RunChainRendered(&ctx_, input, chain, 1),
        "seed " + std::to_string(seed) + " batch " + std::to_string(batch));
  }
}

TEST_F(ColumnarFuzzTest, SsSelectProjectChainMatchesScalarPath) {
  for (size_t seed = 0; seed < kCasesPerSuite; ++seed) {
    Rng rng(10000 + seed);
    const RandomSchema rs = MakeRandomSchema(&rng, "s");
    const auto input = RandomStream(&rng, rs, "s", ids_, 300);
    SsOptions opts;
    opts.stream_name = "s";
    opts.schema = rs.schema;
    opts.mask_attributes = rng.NextBool();
    opts.predicates = {RoleSet::FromIds({ids_[rng.NextBounded(6)]})};
    const ExprPtr pred = RandomPredicate(&rng, rs, 1);
    std::vector<int> keep;
    for (size_t c = 0; c < rs.col_types.size(); ++c) {
      if (rng.NextBool(0.7)) keep.push_back(static_cast<int>(c));
    }
    if (keep.empty()) keep.push_back(0);
    const size_t batch = RandomBatchSize(&rng);
    auto chain = [&](Pipeline* p) {
      return std::vector<Operator*>{p->Add<SsOperator>(opts),
                                    p->Add<SaSelect>(pred),
                                    p->Add<SaProject>(keep, rs.schema)};
    };
    ExpectSameSequence(
        RunChainRendered(&ctx_, input, chain, batch),
        RunChainRendered(&ctx_, input, chain, 1),
        "seed " + std::to_string(seed) + " batch " + std::to_string(batch));
  }
}

// ---- join: identical port interleavings, rows vs columnar input -------

struct PortedElement {
  int port;
  StreamElement elem;
};

/// Feed `script` to a fresh SaJoinNl; one-element row PushBatch calls when
/// batch == 0, else columnar PushBatch cut at port switches and `batch`
/// elements.
std::vector<std::string> RunJoinScript(ExecContext* ctx,
                                       const SaJoinOptions& jopts,
                                       const std::vector<PortedElement>& script,
                                       size_t batch) {
  Pipeline pipeline(ctx);
  auto* join = pipeline.Add<SaJoinNl>(jopts);
  auto* sink = pipeline.Add<CollectorSink>();
  join->AddOutput(sink);
  if (batch == 0) {
    for (const PortedElement& pe : script) {
      join->PushBatch(ElementBatch({pe.elem}), pe.port);
    }
  } else {
    ElementBatch buf;
    int buf_port = -1;
    auto flush = [&] {
      if (!buf.empty()) join->PushBatch(std::move(buf), buf_port);
      buf = ElementBatch();
      buf.BeginColumnar();
    };
    buf.BeginColumnar();
    for (const PortedElement& pe : script) {
      if (pe.port != buf_port || buf.size() >= batch) {
        flush();
        buf_port = pe.port;
      }
      buf.Append(pe.elem);
    }
    flush();
  }
  return Render(sink->elements());
}

TEST_F(ColumnarFuzzTest, JoinColumnarInputMatchesScalarPath) {
  for (size_t seed = 0; seed < kCasesPerSuite; ++seed) {
    Rng rng(11000 + seed);
    // Int- or string-keyed equijoin on column 0 of both sides.
    const bool string_keys = rng.NextBool();
    RandomSchema ls, rsch;
    ls.col_types = {string_keys ? ValueType::kString : ValueType::kInt64,
                    ValueType::kInt64};
    ls.schema = MakeSchema("L", {Field{"a", ls.col_types[0]},
                                 Field{"b", ValueType::kInt64}});
    ls.null_p = 0.1;
    rsch = ls;
    rsch.schema = MakeSchema("R", {Field{"a", ls.col_types[0]},
                                   Field{"b", ValueType::kInt64}});

    SaJoinOptions jopts;
    jopts.window_size = 8;
    jopts.left_stream_name = "L";
    jopts.right_stream_name = "R";

    const auto left = RandomStream(&rng, ls, "L", ids_, 120);
    const auto right = RandomStream(&rng, rsch, "R", ids_, 120);
    std::vector<PortedElement> script;
    size_t li = 0, ri = 0;
    Rng interleave(12000 + seed);
    while (li < left.size() || ri < right.size()) {
      const size_t run = 1 + interleave.NextBounded(9);
      const bool from_left = ri >= right.size() ||
                             (li < left.size() && interleave.NextBool());
      for (size_t k = 0; k < run; ++k) {
        if (from_left && li < left.size()) {
          script.push_back(PortedElement{0, left[li++]});
        } else if (!from_left && ri < right.size()) {
          script.push_back(PortedElement{1, right[ri++]});
        }
      }
    }
    const size_t batch = RandomBatchSize(&rng);
    ExpectSameSequence(
        RunJoinScript(&ctx_, jopts, script, batch),
        RunJoinScript(&ctx_, jopts, script, 0),
        "seed " + std::to_string(seed) + " batch " + std::to_string(batch) +
            (string_keys ? " string keys" : " int keys"));
  }
}

// ---- VectorPredicate vs Expr::EvalBool -------------------------------

TEST_F(ColumnarFuzzTest, VectorPredicateMatchesEvalBool) {
  for (size_t seed = 0; seed < kCasesPerSuite * 4; ++seed) {
    Rng rng(13000 + seed);
    RandomSchema rs = MakeRandomSchema(&rng, "s");
    rs.type_chaos = false;  // keep columns typed so Compile's fast path runs
    ElementBatch batch;
    batch.BeginColumnar();
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < 64; ++i) {
      tuples.push_back(RandomTuple(&rng, rs, static_cast<TupleId>(i), 1));
      batch.push_back(StreamElement(tuples.back()));
    }
    ASSERT_TRUE(batch.is_columnar());
    const ExprPtr expr = RandomPredicate(&rng, rs, 2);
    VectorPredicate pred;
    ASSERT_TRUE(pred.Compile(*expr)) << "seed " << seed;
    for (size_t r = 0; r < tuples.size(); ++r) {
      EXPECT_EQ(pred.Test(batch, static_cast<uint32_t>(r)),
                expr->EvalBool(tuples[r]))
          << "seed " << seed << " row " << r << " tuple "
          << tuples[r].ToString();
    }
  }
}

TEST_F(ColumnarFuzzTest, VectorDistanceMatchesEvalBool) {
  for (size_t seed = 0; seed < kCasesPerSuite * 4; ++seed) {
    Rng rng(13500 + seed);
    RandomSchema rs = MakeRandomSchema(&rng, "s");
    rs.type_chaos = false;
    ElementBatch batch;
    batch.BeginColumnar();
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < 64; ++i) {
      tuples.push_back(RandomTuple(&rng, rs, static_cast<TupleId>(i), 1));
      batch.push_back(StreamElement(tuples.back()));
    }
    ASSERT_TRUE(batch.is_columnar());
    const ExprPtr expr = RandomDistancePredicate(&rng, rs);
    VectorPredicate pred;
    ASSERT_TRUE(pred.Compile(*expr)) << "seed " << seed;
    for (size_t r = 0; r < tuples.size(); ++r) {
      EXPECT_EQ(pred.Test(batch, static_cast<uint32_t>(r)),
                expr->EvalBool(tuples[r]))
          << "seed " << seed << " row " << r << " expr " << expr->ToString()
          << " tuple " << tuples[r].ToString();
    }
  }
}

TEST_F(ColumnarFuzzTest, SelectDistanceKernelMatchesScalarPath) {
  for (size_t seed = 0; seed < kCasesPerSuite; ++seed) {
    Rng rng(13700 + seed);
    const RandomSchema rs = MakeRandomSchema(&rng, "s");
    const auto input = RandomStream(&rng, rs, "s", ids_, 200);
    const ExprPtr pred = RandomDistancePredicate(&rng, rs);
    const size_t batch = RandomBatchSize(&rng);
    auto chain = [&](Pipeline* p) {
      return std::vector<Operator*>{p->Add<SaSelect>(pred)};
    };
    ExpectSameSequence(
        RunChainRendered(&ctx_, input, chain, batch),
        RunChainRendered(&ctx_, input, chain, 1),
        "seed " + std::to_string(seed) + " batch " + std::to_string(batch) +
            " " + pred->ToString());
  }
}

// ---- random selection vectors through DecayToRows --------------------

TEST_F(ColumnarFuzzTest, RandomSelectionDecaysToExpectedInterleave) {
  for (size_t seed = 0; seed < kCasesPerSuite * 2; ++seed) {
    Rng rng(14000 + seed);
    const RandomSchema rs = MakeRandomSchema(&rng, "s");
    const auto input = RandomStream(&rng, rs, "s", ids_, 80);

    ElementBatch batch;
    batch.BeginColumnar();
    std::vector<Tuple> row_tuples;            // by original row index
    std::vector<std::pair<size_t, const StreamElement*>> specials;
    for (const StreamElement& e : input) {
      if (e.is_tuple()) {
        row_tuples.push_back(e.tuple());
      } else {
        specials.emplace_back(row_tuples.size(), &e);
      }
      batch.Append(e);
    }
    if (!batch.is_columnar()) continue;  // type chaos decayed it: fine

    std::vector<uint32_t> sel;
    for (uint32_t r = 0; r < row_tuples.size(); ++r) {
      if (rng.NextBool(0.6)) sel.push_back(r);
    }
    batch.SetSelection(sel);

    // Reference: every special before/at a live row precedes it; trailing
    // specials (and those anchored after every live row) come last.
    std::vector<std::string> expected;
    size_t si = 0;
    for (uint32_t r : sel) {
      while (si < specials.size() && specials[si].first <= r) {
        expected.push_back(specials[si++].second->ToString());
      }
      expected.push_back(StreamElement(row_tuples[r]).ToString());
    }
    for (; si < specials.size(); ++si) {
      expected.push_back(specials[si].second->ToString());
    }

    EXPECT_EQ(Render(batch.elements()), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spstream
