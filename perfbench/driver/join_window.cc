// join_window: SELECT A.v FROM A [RANGE 4000], B [RANGE 4000] WHERE
// A.k = B.k over 4096 keys on two shards, one sp per 400 tuples per stream
// that always grants the query's role. The O(window) SAJoin probe and
// window maintenance dominate; policy checks (reads) far outnumber installs
// (writes), and shard routing, barrier and merge run every epoch.
#include <deque>
#include <unordered_map>

#include "common/rng.h"
#include "engine_workload.h"

namespace perfbench {
namespace {

using namespace spstream;

constexpr int64_t kTuplesPerEpoch = 25;  // per stream
constexpr int64_t kTuplesPerSp = 400;
constexpr int64_t kWindow = 4000;  // RANGE, in ts units
constexpr uint64_t kKeySpace = 4096;
constexpr size_t kRolePool = 16;
constexpr size_t kExtraRolesPerSp = 3;
constexpr size_t kShards = 2;

/// Hash-keyed windowed equi-join over the generated inputs, fed in the
/// order the engine sees them. A tuple arriving on one side first expires
/// the other side's tuples with ts <= its ts - RANGE, joins every remaining
/// tuple with its key, then enters its own window. Every sp grants the
/// query's role, so every pair passes the policy intersection.
class JoinReference {
 public:
  void Feed(const Tuple& t, int side, Digest* out) {
    const int other = 1 - side;
    const int64_t key = t.values[0].int64();
    std::deque<Entry>& order = order_[other];
    while (!order.empty() && order.front().ts <= t.ts - kWindow) {
      by_key_[other][order.front().key].pop_front();
      order.pop_front();
    }
    const Entry self{key, t.values[1].int64(), t.ts, t.tid};
    auto it = by_key_[other].find(key);
    if (it != by_key_[other].end()) {
      for (const Entry& e : it->second) {
        const int64_t a_v = side == 0 ? self.v : e.v;
        out->Add(Tuple(0, std::max(self.tid, e.tid), {Value(a_v)},
                       std::max(self.ts, e.ts)));
      }
    }
    order_[side].push_back(self);
    by_key_[side][key].push_back(self);
  }

 private:
  struct Entry {
    int64_t key;
    int64_t v;
    Timestamp ts;
    TupleId tid;
  };
  std::deque<Entry> order_[2];
  std::unordered_map<int64_t, std::deque<Entry>> by_key_[2];
};

class JoinWindow final : public EngineWorkload {
 public:
  explicit JoinWindow(uint64_t seed) : EngineWorkload(Options()), seed_(seed) {
    for (size_t r = 0; r < kRolePool; ++r) {
      engine_->RegisterRole("role" + std::to_string(r));
    }
    const char* names[2] = {"A", "B"};
    const char* value_col[2] = {"v", "u"};
    for (int s = 0; s < 2; ++s) {
      Result<StreamId> sid = engine_->RegisterStream(
          MakeSchema(names[s], {Field{"k", ValueType::kInt64},
                                Field{value_col[s], ValueType::kInt64}}));
      ok_ &= Ok(sid.status(), "RegisterStream");
      if (sid.ok()) sid_[s] = *sid;
    }
    ok_ &= Ok(engine_->RegisterSubject("tracker", {"role0"}),
              "RegisterSubject");
    RegisterQuery("tracker", "SELECT A.v FROM A [RANGE " +
                                 std::to_string(kWindow) + "], B [RANGE " +
                                 std::to_string(kWindow) +
                                 "] WHERE A.k = B.k");
  }

  static EngineOptions Options() {
    EngineOptions o;
    o.num_shards = kShards;
    return o;
  }

  std::vector<std::string> Config() const override {
    return {"EngineOptions.num_shards=" + std::to_string(kShards),
            "tuples_per_epoch_per_stream=" + std::to_string(kTuplesPerEpoch),
            "tuples_per_sp=" + std::to_string(kTuplesPerSp),
            "window=" + std::to_string(kWindow),
            "key_space=" + std::to_string(kKeySpace)};
  }

  void Prepare(int64_t epoch) override {
    static const char* kNames[2] = {"A", "B"};
    input_.clear();
    expected_.assign(1, Digest{});
    for (int s = 0; s < 2; ++s) {
      Rng rng(SubSeed(seed_, 2 * static_cast<uint64_t>(epoch) + s));
      std::vector<StreamElement> out;
      out.reserve(kTuplesPerEpoch + kTuplesPerEpoch / kTuplesPerSp + 1);
      for (int64_t i = 0; i < kTuplesPerEpoch; ++i) {
        // A holds the odd timestamps, B the even ones: both advance 2 per
        // tuple, so the two windows stay aligned.
        const Timestamp ts = 2 * (epoch * kTuplesPerEpoch + i) + 1 + s;
        if ((epoch * kTuplesPerEpoch + i) % kTuplesPerSp == 0) {
          out.emplace_back(GrantSp(kNames[s], &rng, ts));
        }
        const int64_t key = static_cast<int64_t>(rng.NextBounded(kKeySpace));
        const int64_t v = static_cast<int64_t>(rng.NextBounded(1000000));
        out.emplace_back(Tuple(sid_[s], next_tid_++, {Value(key), Value(v)}, ts));
        ref_.Feed(out.back().tuple(), s, &expected_[0]);
      }
      input_.emplace_back(kNames[s], std::move(out));
    }
    tuples_ = 2 * kTuplesPerEpoch;
  }

 private:
  static SecurityPunctuation GrantSp(const char* stream, Rng* rng,
                                     Timestamp ts) {
    SecurityPunctuation sp(Pattern::Literal(stream), Pattern::Any(),
                           Pattern::Any(), Pattern::Any(), Sign::kPositive,
                           /*immutable=*/false, ts);
    std::vector<RoleId> roles = {0};  // role0: the query's role
    for (size_t i = 0; i < kExtraRolesPerSp; ++i) {
      roles.push_back(static_cast<RoleId>(rng->NextBounded(kRolePool)));
    }
    sp.SetResolvedRoles(RoleSet::FromIds(roles));
    return sp;
  }

  uint64_t seed_;
  StreamId sid_[2] = {0, 0};
  TupleId next_tid_ = 0;
  JoinReference ref_;
};

}  // namespace

std::unique_ptr<Workload> MakeJoinWindow(uint64_t seed) {
  auto w = std::make_unique<JoinWindow>(seed);
  if (!w->ok()) return nullptr;
  return w;
}

}  // namespace perfbench
