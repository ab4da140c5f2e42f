#include "engine/engine_service.h"

namespace spstream {

EngineService::EngineService(EngineOptions options)
    : engine_(std::move(options)) {}

RoleId EngineService::RegisterRole(const std::string& name) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_.RegisterRole(name);
}

Result<StreamId> EngineService::RegisterStream(SchemaPtr schema) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_.RegisterStream(std::move(schema));
}

Status EngineService::RegisterSubject(
    const std::string& name, const std::vector<std::string>& role_names) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_.RegisterSubject(name, role_names);
}

Result<QueryId> EngineService::RegisterQuery(const std::string& subject,
                                             const std::string& sql) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_.RegisterQuery(subject, sql);
}

Status EngineService::ExecuteInsertSp(const std::string& sql) {
  Status st;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    st = engine_.ExecuteInsertSp(sql);
  }
  if (st.ok()) {
    if (auto notify = MarkWorkPending()) notify();
  }
  return st;
}

std::function<void()> EngineService::MarkWorkPending() {
  std::lock_guard<std::mutex> lock(pace_mu_);
  work_pending_ = true;
  return work_notifier_;
}

Status EngineService::Push(const std::string& stream_name,
                           std::vector<StreamElement> elements,
                           const std::function<void()>& on_admitted) {
  Status st;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    st = engine_.Push(stream_name, std::move(elements));
    if (st.ok() && on_admitted) on_admitted();
  }
  if (st.ok()) {
    if (auto notify = MarkWorkPending()) notify();
  }
  return st;
}

Result<std::vector<Tuple>> EngineService::TakeResults(QueryId id) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_.TakeResults(id);
}

std::vector<std::pair<StreamId, SchemaPtr>> EngineService::ListStreams() {
  std::lock_guard<std::mutex> lock(engine_mu_);
  std::vector<std::pair<StreamId, SchemaPtr>> out;
  StreamCatalog* catalog = engine_.streams();
  out.reserve(catalog->size());
  for (StreamId id = 0; id < catalog->size(); ++id) {
    out.emplace_back(id, catalog->schema(id));
  }
  return out;
}

Result<StreamId> EngineService::LookupStreamId(const std::string& name) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_.streams()->LookupId(name);
}

Result<std::string> EngineService::StreamName(StreamId id) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  if (id >= engine_.streams()->size()) {
    return Status::NotFound("no stream with id " + std::to_string(id));
  }
  return engine_.streams()->schema(id)->stream_name();
}

uint64_t EngineService::RequestEpoch() {
  uint64_t target;
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(pace_mu_);
    work_pending_ = true;
    notify = work_notifier_;
    // An epoch already in flight may have begun before the caller's
    // pushes; the first epoch that starts from now on is
    // epochs_started_ + 1, and it drains everything already admitted.
    target = epochs_started_ + 1;
  }
  if (notify) notify();
  return target;
}

bool EngineService::PollWork() {
  std::lock_guard<std::mutex> lock(pace_mu_);
  if (stopped_ || !work_pending_) return false;
  work_pending_ = false;
  return true;
}

void EngineService::SetWorkNotifier(std::function<void()> notify) {
  std::lock_guard<std::mutex> lock(pace_mu_);
  work_notifier_ = std::move(notify);
}

void EngineService::RunEpoch(
    const std::function<void(SpStreamEngine*)>& after_run) {
  {
    std::lock_guard<std::mutex> lock(pace_mu_);
    ++epochs_started_;
  }
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    const Status st = engine_.Run();
    if (!st.ok()) {
      engine_.metrics()->AddCounter("net.epoch_errors");
    }
    if (after_run) after_run(&engine_);
  }
}

void EngineService::Stop() {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(pace_mu_);
    stopped_ = true;
    notify = work_notifier_;
  }
  if (notify) notify();
}

}  // namespace spstream
