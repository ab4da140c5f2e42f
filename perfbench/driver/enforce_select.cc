// enforce_select: the §VII.A moving-objects stream, one sp per 10 tuples,
// eight subjects with different role pairs each registering the same region
// select-project query, shared plans on. Policy installs (an sp every 10
// tuples into the merged shield and eight split shields) dominate, and it is
// the only workload on the shared-trunk path.
#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "engine_workload.h"
#include "workload/moving_objects.h"

namespace perfbench {
namespace {

using namespace spstream;

constexpr size_t kTuplesPerEpoch = 200;
constexpr int kTuplesPerSp = 10;
constexpr size_t kRolesPerSp = 4;
constexpr size_t kRolePool = 100;
constexpr size_t kSubjects = 8;
constexpr int kGrid = 30;
// The region: centre of the 30x30 grid, radius 1200 (the Fig. 8 query).
constexpr double kCentre = 1450.0;
constexpr double kRadius = 1200.0;
const char kQuery[] =
    "SELECT object_id, x, y FROM Location "
    "WHERE DISTANCE(x, y, 1450, 1450) <= 1200";

class EnforceSelect final : public EngineWorkload {
 public:
  explicit EnforceSelect(uint64_t seed)
      : EngineWorkload(Options()), seed_(seed) {
    MovingObjectsGenerator::SeedRoles(engine_->roles(), kRolePool);
    Result<StreamId> sid = engine_->RegisterStream(
        MovingObjectsGenerator::LocationSchema("Location"));
    ok_ = Ok(sid.status(), "RegisterStream");
    // Eight distinct role pairs; SeedRoles named role id i "r<i+1>".
    Rng rng(SubSeed(seed, 0));
    std::set<std::pair<RoleId, RoleId>> used;
    while (roles_.size() < kSubjects) {
      RoleId a = static_cast<RoleId>(rng.NextBounded(kRolePool));
      RoleId b = static_cast<RoleId>(rng.NextBounded(kRolePool));
      if (a == b || !used.insert(std::minmax(a, b)).second) continue;
      const std::string subject = "subject" + std::to_string(roles_.size());
      ok_ &= Ok(engine_->RegisterSubject(
                    subject, {"r" + std::to_string(a + 1),
                              "r" + std::to_string(b + 1)}),
                "RegisterSubject");
      roles_.push_back(RoleSet::FromIds({a, b}));
      subjects_.push_back(subject);
    }
    for (const std::string& s : subjects_) RegisterQuery(s, kQuery);
  }

  static EngineOptions Options() {
    EngineOptions o;
    o.share_plans = true;
    o.num_shards = 1;
    return o;
  }

  std::vector<std::string> Config() const override {
    return {"EngineOptions.share_plans=true",
            "EngineOptions.num_shards=1",
            "tuples_per_epoch=" + std::to_string(kTuplesPerEpoch),
            "tuples_per_sp=" + std::to_string(kTuplesPerSp),
            "roles_per_sp=" + std::to_string(kRolesPerSp) + " of " +
                std::to_string(kRolePool),
            "subjects=" + std::to_string(kSubjects),
            std::string("query=") + kQuery};
  }

  void Prepare(int64_t epoch) override {
    if (!network_) {
      RoadNetworkOptions net;
      net.grid_width = kGrid;
      net.grid_height = kGrid;
      net.seed = SubSeed(seed_, 1);
      network_ = RoadNetwork::Grid(net);
    }
    // One generator per epoch; blocks align with the epoch, so every
    // epoch opens with an sp (shared trunks keep no policy across epochs).
    MovingObjectsOptions mo;
    mo.num_objects = kTuplesPerEpoch;
    mo.num_updates = kTuplesPerEpoch;
    mo.tuples_per_sp = kTuplesPerSp;
    mo.roles_per_policy = kRolesPerSp;
    mo.role_pool = kRolePool;
    mo.seed = SubSeed(seed_, 100 + static_cast<uint64_t>(epoch));
    mo.start_ts = 1 + epoch * static_cast<int64_t>(kTuplesPerEpoch);
    MovingObjectsGenerator gen(engine_->roles(), *network_, mo);
    std::vector<StreamElement> elements = gen.Generate();

    // Reference: a tuple reaches a query when its block's sp grants one of
    // the subject's roles and it lies inside the region.
    expected_.assign(kSubjects, Digest{});
    const RoleSet* policy = nullptr;
    for (const StreamElement& e : elements) {
      if (e.is_sp()) {
        policy = &e.sp().roles();
        continue;
      }
      const Tuple& t = e.tuple();
      const double dx = t.values[1].dbl() - kCentre;
      const double dy = t.values[2].dbl() - kCentre;
      if (policy == nullptr || !(std::sqrt(dx * dx + dy * dy) <= kRadius)) {
        continue;
      }
      const Tuple out(t.sid, t.tid, {t.values[0], t.values[1], t.values[2]},
                      t.ts);
      for (size_t q = 0; q < kSubjects; ++q) {
        if (policy->Intersects(roles_[q])) expected_[q].Add(out);
      }
    }
    input_.clear();
    input_.emplace_back("Location", std::move(elements));
    tuples_ = static_cast<int64_t>(kTuplesPerEpoch);
  }

 private:
  uint64_t seed_;
  std::vector<RoleSet> roles_;
  std::vector<std::string> subjects_;
  std::optional<RoadNetwork> network_;
};

}  // namespace

std::unique_ptr<Workload> MakeEnforceSelect(uint64_t seed) {
  auto w = std::make_unique<EnforceSelect>(seed);
  if (!w->ok()) return nullptr;
  return w;
}

}  // namespace perfbench
