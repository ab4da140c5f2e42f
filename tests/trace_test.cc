// Tracing & flight-recorder tests (common/trace.h):
//   - span/instant round-trip through the per-thread rings, parent nesting,
//     and Chrome trace-event JSON structural validity;
//   - trace-context propagation over the wire: a loopback client push and
//     the server/engine spans it causes share one sp-batch trace id;
//   - the always-on flight recorder dumps on an injected policy.install
//     fault, carrying the responsible trace;
//   - tracing off (the default) allocates no span rings.
//
// The tracer is process-global, so every test arms it in SetUp and disarms
// in TearDown — a failing test must not leave tracing on for the suite.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "security/security_punctuation.h"

namespace spstream {
namespace {

// ---- minimal JSON scanner --------------------------------------------------
// Not a parser: checks the structural invariants Perfetto/chrome://tracing
// depend on — balanced braces/brackets outside strings, no raw control
// characters inside strings, valid escapes.
bool JsonStructureValid(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
        if (i >= json.size()) return false;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

const TraceEvent* FindByName(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const TraceEvent& e : events) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

/// Like FindByName but pinned to one trace — several sp-batches (e.g. an
/// INSERT SP and a pushed sp) each produce same-named spans.
const TraceEvent* FindInTrace(const std::vector<TraceEvent>& events,
                              const std::string& name, TraceId trace) {
  for (const TraceEvent& e : events) {
    if (e.trace_id == trace && name == e.name) return &e;
  }
  return nullptr;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
    FaultInjector::Global().DisarmAll();
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

// ---- core round-trip -------------------------------------------------------

TEST_F(TraceTest, SpanRoundTripThroughRing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  const TraceId trace = tracer.NewTraceId();
  {
    ScopedTraceContext ctx(trace);
    TraceSpan outer(TraceCat::kEngine, "outer", trace, 7);
    {
      TraceSpan inner(TraceCat::kOperator, "inner", trace);
      inner.set_args(1, 2, 3);
    }
    tracer.Instant(TraceCat::kPolicy, "mark", trace, 42, 43);
  }
  const std::vector<TraceEvent> events = tracer.Snapshot();
  const TraceEvent* outer = FindByName(events, "outer");
  const TraceEvent* inner = FindByName(events, "inner");
  const TraceEvent* mark = FindByName(events, "mark");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);

  EXPECT_EQ(outer->trace_id, trace);
  EXPECT_EQ(inner->trace_id, trace);
  EXPECT_EQ(mark->trace_id, trace);
  // inner nests under outer; both are complete spans, the mark an instant.
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_GE(outer->dur_nanos, 0);
  EXPECT_GE(inner->dur_nanos, 0);
  EXPECT_LT(mark->dur_nanos, 0);
  EXPECT_EQ(outer->arg1, 7);
  EXPECT_EQ(inner->arg1, 1);
  EXPECT_EQ(inner->arg2, 2);
  EXPECT_EQ(inner->arg3, 3);
  EXPECT_EQ(mark->arg1, 42);
  // Span ids are unique.
  EXPECT_NE(outer->span_id, inner->span_id);
}

TEST_F(TraceTest, DisarmedSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  {
    // trace id 0 = unsampled batch: the span must stay silent.
    TraceSpan span(TraceCat::kOperator, "silent", 0, 99);
  }
  EXPECT_EQ(FindByName(tracer.Snapshot(), "silent"), nullptr);
}

TEST_F(TraceTest, SpBatchTraceIdIsDeterministicAndTagged) {
  // Same ts -> same id (the cross-layer join key); different ts -> different.
  EXPECT_EQ(SpBatchTraceId(1234), SpBatchTraceId(1234));
  EXPECT_NE(SpBatchTraceId(1234), SpBatchTraceId(1235));
  EXPECT_NE(SpBatchTraceId(1234), 0u);
  // Top byte tags the id family (sp-batch vs epoch vs ad-hoc).
  EXPECT_EQ(SpBatchTraceId(77) >> 56, 0x5Bu);
  EXPECT_EQ(EpochTraceId(77) >> 56, 0xE7u);
}

TEST_F(TraceTest, ChromeTraceJsonIsStructurallyValid) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(1);
  const TraceId trace = tracer.NewTraceId();
  {
    TraceSpan span(TraceCat::kNet, "needs\"escaping\\here", trace, 1, 2);
    tracer.Instant(TraceCat::kIncident, "instant", trace);
  }
  const std::string json = ChromeTraceJson(tracer.Snapshot());
  EXPECT_TRUE(JsonStructureValid(json)) << json;
  // Complete spans and instants both present, with the trace id in args.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  // The quote in the span name must have been escaped.
  EXPECT_EQ(json.find("needs\"escaping"), std::string::npos);

  const std::string timeline = RenderTimeline(tracer.Snapshot());
  EXPECT_NE(timeline.find("instant"), std::string::npos);
}

// ---- wire propagation ------------------------------------------------------

TEST_F(TraceTest, PushPayloadCarriesTraceContextTolerantly) {
  PushPayload p;
  p.stream = 3;
  p.elements.emplace_back(Tuple(3, 1, {Value(int64_t{5})}, 10));
  p.trace_id = 0xABCDEF;
  p.span_id = 0x1234;
  std::string traced;
  EncodePush(p, &traced);
  Result<PushPayload> rt = DecodePush(traced);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->trace_id, 0xABCDEFu);
  EXPECT_EQ(rt->span_id, 0x1234u);

  // Untraced encode produces the pre-v3 byte stream; decoding it (or any
  // v1/v2 payload) yields zeroed context.
  p.trace_id = 0;
  p.span_id = 0;
  std::string untraced;
  EncodePush(p, &untraced);
  EXPECT_LT(untraced.size(), traced.size());
  Result<PushPayload> rt2 = DecodePush(untraced);
  ASSERT_TRUE(rt2.ok());
  EXPECT_EQ(rt2->trace_id, 0u);
  EXPECT_EQ(rt2->span_id, 0u);
}

TEST_F(TraceTest, LoopbackPushJoinsOneConnectedTrace) {
  Tracer::Global().Enable(1);

  EngineService service;
  StreamServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());
  {
    StreamClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), "tracer").ok());
    ASSERT_GE(client.peer_version(), 3u);

    ASSERT_TRUE(client.RegisterRole("GP").ok());
    SchemaPtr schema = MakeSchema(
        "Vitals", {Field{"patient_id", ValueType::kInt64}});
    ASSERT_TRUE(client.RegisterStream(schema).ok());
    ASSERT_TRUE(client.RegisterSubject("doctor", {"GP"}).ok());
    Result<uint64_t> qid =
        client.RegisterQuery("doctor", "SELECT patient_id FROM Vitals");
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    ASSERT_TRUE(client.Subscribe(*qid).ok());
    ASSERT_TRUE(client
                    .InsertSp("INSERT SP INTO STREAM Vitals LET DDP = "
                              "(Vitals, *, *), SRP = (RBAC, GP), TS = 5")
                    .ok());

    // The PUSH carries an sp at ts=9: its deterministic trace id must
    // connect the client span, the server decode span, and the engine's
    // analyzer/install path.
    SecurityPunctuation sp(Pattern::Literal("Vitals"), Pattern::Any(),
                           Pattern::Any(), Pattern::Any(), Sign::kPositive,
                           /*immutable=*/false, /*ts=*/9);
    sp.SetResolvedRoles(RoleSet::FromIds({0}));
    std::vector<StreamElement> batch;
    batch.emplace_back(std::move(sp));
    batch.emplace_back(Tuple(0, 1, {Value(int64_t{120})}, 10));
    ASSERT_TRUE(client.Push("Vitals", std::move(batch)).ok());
    ASSERT_TRUE(client.Run().ok());
    ASSERT_TRUE(client.PollResults(*qid, 1, 2000).ok());
  }
  server.Stop();

  const TraceId batch_trace = SpBatchTraceId(9);
  const std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  // Pinned to the pushed sp-batch's trace: the INSERT SP (ts=5) produced
  // same-named spans in its own trace.
  const TraceEvent* client_push = FindInTrace(events, "client.push",
                                              batch_trace);
  const TraceEvent* server_push = FindInTrace(events, "server.push",
                                              batch_trace);
  const TraceEvent* admit = FindInTrace(events, "analyzer.admit",
                                        batch_trace);
  const TraceEvent* install = FindInTrace(events, "policy.install",
                                          batch_trace);
  ASSERT_NE(client_push, nullptr);
  ASSERT_NE(server_push, nullptr);
  ASSERT_NE(admit, nullptr);
  ASSERT_NE(install, nullptr);
  // The server span is a child of the client span: the context crossed the
  // wire, it was not re-derived from a fresh root.
  EXPECT_EQ(server_push->parent_id, client_push->span_id);
  // Operator spans of the epoch exist (engine.run published the epoch
  // trace; the sp batch carried its own).
  EXPECT_NE(FindByName(events, "engine.run"), nullptr);
}

// ---- flight recorder -------------------------------------------------------

TEST_F(TraceTest, FlightRecorderDumpsOnInjectedInstallFault) {
  // Tracing stays OFF: the flight recorder must capture incidents anyway.
  ASSERT_FALSE(Tracer::Global().enabled());
  const int64_t incidents_before = Tracer::Global().incident_count();

  SpStreamEngine engine;
  engine.RegisterRole("GP");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "Vitals", {Field{"patient_id", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("doctor", {"GP"}).ok());
  ASSERT_TRUE(
      engine.RegisterQuery("doctor", "SELECT patient_id FROM Vitals").ok());

  ScopedFault fault(fault::kPolicyInstall,
                    FaultSpec{0.0, /*trigger_on_hit=*/1, -1});
  SecurityPunctuation sp(Pattern::Literal("Vitals"), Pattern::Any(),
                         Pattern::Any(), Pattern::Any(), Sign::kPositive,
                         /*immutable=*/false, /*ts=*/3);
  sp.SetResolvedRoles(RoleSet::FromIds({0}));
  std::vector<StreamElement> batch;
  batch.emplace_back(std::move(sp));
  batch.emplace_back(Tuple(0, 1, {Value(int64_t{120})}, 4));
  ASSERT_TRUE(engine.Push("Vitals", std::move(batch)).ok());
  (void)engine.Run();

  EXPECT_GT(Tracer::Global().incident_count(), incidents_before);
  const std::vector<Tracer::IncidentDump> dumps =
      Tracer::Global().IncidentDumps();
  ASSERT_FALSE(dumps.empty());
  const bool saw_install_fault =
      std::any_of(dumps.begin(), dumps.end(),
                  [](const Tracer::IncidentDump& d) {
                    return d.reason == fault::kPolicyInstall;
                  });
  EXPECT_TRUE(saw_install_fault);
  // The dump carries flight events — at minimum the incident marker, which
  // is named after the reason (the faulted site).
  const Tracer::IncidentDump& last = dumps.back();
  EXPECT_FALSE(last.events.empty());
  EXPECT_NE(FindByName(last.events, fault::kPolicyInstall), nullptr);
}

TEST_F(TraceTest, QuarantineAttachesTraceIdToAudit) {
  Tracer::Global().Enable(1);
  // Quarantine path: a worker fault in a sharded engine poisons the shard
  // and the engine fails the query closed at the epoch barrier.
  EngineOptions opts;
  opts.num_shards = 2;
  SpStreamEngine engine(std::move(opts));
  engine.RegisterRole("GP");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "Vitals", {Field{"patient_id", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("doctor", {"GP"}).ok());
  ASSERT_TRUE(
      engine.RegisterQuery("doctor", "SELECT patient_id FROM Vitals").ok());

  ScopedFault fault(fault::kOperatorProcess,
                    FaultSpec{0.0, /*trigger_on_hit=*/1, -1});
  std::vector<StreamElement> batch;
  for (TupleId t = 0; t < 16; ++t) {
    batch.emplace_back(Tuple(0, t, {Value(int64_t{t})}, 1 + t));
  }
  ASSERT_TRUE(engine.Push("Vitals", std::move(batch)).ok());
  ASSERT_TRUE(engine.Run().ok());  // fault degrades, never errors

  // The quarantine audit event names the epoch trace that was active.
  bool saw_traced_quarantine = false;
  for (const AuditEvent& e : engine.audit()->Tail(16)) {
    if (e.kind == AuditEventKind::kQueryQuarantine && e.trace_id != 0) {
      saw_traced_quarantine = true;
      EXPECT_EQ(e.trace_id >> 56, 0xE7u);  // an epoch trace id
    }
  }
  EXPECT_TRUE(saw_traced_quarantine);
}

// ---- sampling off = zero cost ----------------------------------------------

TEST_F(TraceTest, DisabledTracingAllocatesNoRings) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  const int64_t rings_before = tracer.rings_allocated();

  SpStreamEngine engine;  // tracing stays off: tracer untouched
  engine.RegisterRole("GP");
  ASSERT_TRUE(engine
                  .RegisterStream(MakeSchema(
                      "Vitals", {Field{"patient_id", ValueType::kInt64}}))
                  .ok());
  ASSERT_TRUE(engine.RegisterSubject("doctor", {"GP"}).ok());
  ASSERT_TRUE(
      engine.RegisterQuery("doctor", "SELECT patient_id FROM Vitals").ok());
  SecurityPunctuation sp(Pattern::Literal("Vitals"), Pattern::Any(),
                         Pattern::Any(), Pattern::Any(), Sign::kPositive,
                         /*immutable=*/false, /*ts=*/1);
  sp.SetResolvedRoles(RoleSet::FromIds({0}));
  std::vector<StreamElement> batch;
  batch.emplace_back(std::move(sp));
  for (TupleId t = 0; t < 100; ++t) {
    batch.emplace_back(Tuple(0, t, {Value(int64_t{t})}, 2 + t));
  }
  ASSERT_TRUE(engine.Push("Vitals", std::move(batch)).ok());
  ASSERT_TRUE(engine.Run().ok());

  EXPECT_EQ(tracer.rings_allocated(), rings_before);
  EXPECT_FALSE(tracer.enabled());
}

}  // namespace
}  // namespace spstream
