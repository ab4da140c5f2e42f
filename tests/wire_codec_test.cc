// Round-trip and adversarial-input coverage for the net wire codec
// (net/wire.h): randomized schemas/tuples/sps/frames survive an
// encode->decode round trip bit-exactly, and truncated or corrupted bytes
// always yield a clean Status — never a crash, hang, or huge allocation.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <random>

#include "security/sp_codec.h"

namespace spstream {
namespace {

class WireFuzz : public ::testing::Test {
 protected:
  std::mt19937_64 rng_{0xC0FFEE};  // fixed seed: failures must reproduce

  uint64_t U64(uint64_t bound) { return rng_() % bound; }

  Value RandomValue() {
    switch (U64(5)) {
      case 0: return Value::Null();
      case 1: return Value(static_cast<int64_t>(rng_()));
      case 2: return Value(static_cast<double>(static_cast<int64_t>(rng_())) /
                           257.0);
      case 3: {
        std::string s(U64(40), 'x');
        for (char& c : s) c = static_cast<char>('a' + U64(26));
        return Value(std::move(s));
      }
      default: return Value(U64(2) == 0);
    }
  }

  Tuple RandomTuple() {
    std::vector<Value> values;
    const size_t arity = U64(6);
    values.reserve(arity);
    for (size_t i = 0; i < arity; ++i) values.push_back(RandomValue());
    return Tuple(static_cast<StreamId>(U64(8)),
                 static_cast<TupleId>(rng_() % 1000000),
                 std::move(values),
                 static_cast<Timestamp>(rng_() % 1000000));
  }

  Pattern RandomPattern() {
    switch (U64(4)) {
      case 0: return Pattern::Any();
      case 1: return Pattern::Literal("p" + std::to_string(U64(100)));
      case 2: {
        const int64_t lo = static_cast<int64_t>(U64(1000));
        return Pattern::Range(lo, lo + static_cast<int64_t>(U64(50)));
      }
      default:
        return *Pattern::Compile("a" + std::to_string(U64(10)) + "|b" +
                                 std::to_string(U64(10)));
    }
  }

  SecurityPunctuation RandomSp() {
    SecurityPunctuation sp(RandomPattern(), RandomPattern(), RandomPattern(),
                           RandomPattern(),
                           U64(2) == 0 ? Sign::kPositive : Sign::kNegative,
                           /*immutable=*/U64(2) == 0,
                           static_cast<Timestamp>(U64(100000)));
    if (U64(2) == 0) {
      RoleSet roles;
      const size_t n = 1 + U64(5);
      for (size_t i = 0; i < n; ++i) {
        roles.Insert(static_cast<RoleId>(U64(200)));
      }
      sp.SetResolvedRoles(std::move(roles));
    }
    return sp;
  }

  StreamElement RandomElement() {
    switch (U64(4)) {
      case 0: return StreamElement(RandomSp());
      case 1:
        return StreamElement::Flush(static_cast<Timestamp>(U64(100000)));
      case 2:
        return StreamElement::EndOfStream(
            static_cast<Timestamp>(U64(100000)));
      default: return StreamElement(RandomTuple());
    }
  }

  SchemaPtr RandomSchema() {
    std::vector<Field> fields;
    const size_t n = 1 + U64(8);
    static const ValueType kTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                       ValueType::kString, ValueType::kBool};
    for (size_t i = 0; i < n; ++i) {
      fields.push_back(
          Field{"f" + std::to_string(i), kTypes[U64(4)]});
    }
    return MakeSchema("s" + std::to_string(U64(50)), fields);
  }
};

TEST_F(WireFuzz, ValueRoundTrip) {
  for (int i = 0; i < 2000; ++i) {
    const Value v = RandomValue();
    std::string buf;
    EncodeValue(v, &buf);
    size_t off = 0;
    Result<Value> back = DecodeValue(buf, &off);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(off, buf.size());
    if (v.is_null()) {
      EXPECT_TRUE(back->is_null());
    } else {
      EXPECT_EQ(*back, v);
    }
  }
}

TEST_F(WireFuzz, TupleRoundTrip) {
  for (int i = 0; i < 1000; ++i) {
    const Tuple t = RandomTuple();
    std::string buf;
    EncodeTuple(t, &buf);
    size_t off = 0;
    Result<Tuple> back = DecodeTuple(buf, &off);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(back->sid, t.sid);
    EXPECT_EQ(back->tid, t.tid);
    EXPECT_EQ(back->ts, t.ts);
    EXPECT_EQ(back->values.size(), t.values.size());
  }
}

TEST_F(WireFuzz, ElementRoundTrip) {
  for (int i = 0; i < 1000; ++i) {
    const StreamElement e = RandomElement();
    std::string buf;
    EncodeElement(e, &buf);
    size_t off = 0;
    Result<StreamElement> back = DecodeElement(buf, &off);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(back->is_tuple(), e.is_tuple());
    EXPECT_EQ(back->is_sp(), e.is_sp());
    EXPECT_EQ(back->is_control(), e.is_control());
    if (e.is_sp()) {
      // Bitmap-encoded SRPs ship the resolved role ids, not the original
      // pattern text, so bit-exact sp equality only holds for unresolved
      // sps; resolved ones must round-trip their role set and metadata.
      if (e.sp().roles_resolved()) {
        EXPECT_EQ(back->sp().ts(), e.sp().ts());
        EXPECT_EQ(back->sp().sign(), e.sp().sign());
        EXPECT_TRUE(back->sp().roles_resolved());
        EXPECT_EQ(back->sp().roles().ToIds(), e.sp().roles().ToIds());
      } else {
        EXPECT_EQ(back->sp(), e.sp())
            << back->sp().ToString() << " vs " << e.sp().ToString();
      }
    }
    if (e.is_control()) {
      EXPECT_EQ(back->control().kind, e.control().kind);
    }
  }
}

TEST_F(WireFuzz, SchemaRoundTrip) {
  for (int i = 0; i < 300; ++i) {
    const SchemaPtr s = RandomSchema();
    std::string buf;
    EncodeSchema(*s, &buf);
    size_t off = 0;
    Result<SchemaPtr> back = DecodeSchema(buf, &off);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ((*back)->stream_name(), s->stream_name());
    ASSERT_EQ((*back)->num_fields(), s->num_fields());
    for (size_t f = 0; f < s->num_fields(); ++f) {
      EXPECT_EQ((*back)->field(f).name, s->field(f).name);
      EXPECT_EQ((*back)->field(f).type, s->field(f).type);
    }
  }
}

TEST_F(WireFuzz, FrameRoundTrip) {
  for (int i = 0; i < 500; ++i) {
    PushPayload p;
    p.stream = static_cast<StreamId>(U64(8));
    const size_t n = U64(10);
    for (size_t k = 0; k < n; ++k) p.elements.push_back(RandomElement());
    std::string payload;
    EncodePush(p, &payload);
    std::string buf;
    ASSERT_TRUE(AppendFrame(FrameType::kPush, payload, &buf).ok());
    size_t off = 0;
    Result<Frame> frame = DecodeFrame(buf, &off);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(frame->type, FrameType::kPush);
    Result<PushPayload> back = DecodePush(frame->payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->stream, p.stream);
    EXPECT_EQ(back->elements.size(), p.elements.size());
  }
}

TEST_F(WireFuzz, ControlPayloadRoundTrips) {
  HelloPayload hello{kWireProtocolVersion, "fuzz-client"};
  std::string buf;
  EncodeHello(hello, &buf);
  Result<HelloPayload> h = DecodeHello(buf);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->version, hello.version);
  EXPECT_EQ(h->client_name, hello.client_name);

  HelloAckPayload ack;
  ack.initial_credits = 1234;
  ack.streams.emplace_back(0, RandomSchema());
  ack.streams.emplace_back(1, RandomSchema());
  buf.clear();
  EncodeHelloAck(ack, &buf);
  Result<HelloAckPayload> a = DecodeHelloAck(buf);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->initial_credits, 1234u);
  ASSERT_EQ(a->streams.size(), 2u);
  EXPECT_EQ(a->streams[1].second->stream_name(),
            ack.streams[1].second->stream_name());

  RegisterSubjectPayload subj{"alice", {"doctor", "nurse"}};
  buf.clear();
  EncodeRegisterSubject(subj, &buf);
  Result<RegisterSubjectPayload> s = DecodeRegisterSubject(buf);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->name, "alice");
  EXPECT_EQ(s->roles, subj.roles);

  RegisterQueryPayload q{"alice", "SELECT a FROM s"};
  buf.clear();
  EncodeRegisterQuery(q, &buf);
  Result<RegisterQueryPayload> qq = DecodeRegisterQuery(buf);
  ASSERT_TRUE(qq.ok());
  EXPECT_EQ(qq->subject, q.subject);
  EXPECT_EQ(qq->sql, q.sql);

  ResultPayload r;
  r.query = 7;
  r.tuples.push_back(RandomTuple());
  buf.clear();
  EncodeResult(r, &buf);
  Result<ResultPayload> rr = DecodeResult(buf);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->query, 7u);
  EXPECT_EQ(rr->tuples.size(), 1u);

  buf.clear();
  EncodeError(Status::NotFound("nope"), &buf);
  Result<ErrorPayload> e = DecodeError(buf);
  ASSERT_TRUE(e.ok());
  const Status st = ErrorToStatus(*e);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "nope");
}

// Every strict prefix of a valid single-object encoding must fail cleanly:
// the decoder consumes the whole object, so missing bytes are detectable.
TEST_F(WireFuzz, TruncationAlwaysCleanError) {
  for (int i = 0; i < 200; ++i) {
    std::string buf;
    EncodeElement(RandomElement(), &buf);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t off = 0;
      Result<StreamElement> r =
          DecodeElement(std::string_view(buf.data(), cut), &off);
      EXPECT_FALSE(r.ok()) << "decoded a " << cut << "/" << buf.size()
                           << "-byte prefix";
    }
  }
}

TEST_F(WireFuzz, TruncatedFrameCleanError) {
  std::string payload(100, 'z');
  std::string buf;
  ASSERT_TRUE(AppendFrame(FrameType::kPush, payload, &buf).ok());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t off = 0;
    EXPECT_FALSE(DecodeFrame(std::string_view(buf.data(), cut), &off).ok());
  }
}

// Outbound guard: a payload over the frame limit is refused at encode time
// (clean Status, nothing appended) instead of being shipped and killed by
// the peer's ReadFrame as a protocol violation.
TEST_F(WireFuzz, OversizedFrameRefusedAtEncodeTime) {
  std::string payload(kMaxFrameBytes, 'z');  // + type byte > kMaxFrameBytes
  std::string buf;
  const Status st = AppendFrame(FrameType::kResult, payload, &buf);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(buf.empty());
}

// Chunked RESULT encoding: every chunk respects the byte limit, decodes as
// a standalone RESULT payload for the same query, and concatenating the
// chunks restores the original tuples in order.
TEST_F(WireFuzz, ResultChunksRoundTripUnderTightLimit) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 200; ++i) tuples.push_back(RandomTuple());
  const size_t kLimit = 256;
  const std::vector<std::string> chunks =
      EncodeResultChunks(42, tuples, kLimit);
  ASSERT_GT(chunks.size(), 1u);
  std::vector<Tuple> back;
  for (const std::string& payload : chunks) {
    EXPECT_LE(payload.size(), kLimit);
    Result<ResultPayload> rp = DecodeResult(payload);
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    EXPECT_EQ(rp->query, 42u);
    EXPECT_FALSE(rp->tuples.empty());
    for (Tuple& t : rp->tuples) back.push_back(std::move(t));
  }
  ASSERT_EQ(back.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(back[i].tid, tuples[i].tid);
    EXPECT_EQ(back[i].ts, tuples[i].ts);
    ASSERT_EQ(back[i].values.size(), tuples[i].values.size());
  }
  EXPECT_TRUE(EncodeResultChunks(42, {}, kLimit).empty());
}

// Random byte corruption must never crash; decode either fails or yields
// some value whose decode stayed inside the buffer.
TEST_F(WireFuzz, CorruptionNeverCrashes) {
  for (int i = 0; i < 2000; ++i) {
    std::string buf;
    EncodeElement(RandomElement(), &buf);
    if (buf.empty()) continue;
    const size_t flips = 1 + U64(4);
    for (size_t f = 0; f < flips; ++f) {
      buf[U64(buf.size())] ^= static_cast<char>(1u << U64(8));
    }
    size_t off = 0;
    Result<StreamElement> r = DecodeElement(buf, &off);
    if (r.ok()) {
      EXPECT_LE(off, buf.size());
    }
  }
}

TEST_F(WireFuzz, RandomGarbageNeverCrashes) {
  for (int i = 0; i < 2000; ++i) {
    std::string buf(U64(200), '\0');
    for (char& c : buf) c = static_cast<char>(rng_());
    size_t off = 0;
    (void)DecodeElement(buf, &off);
    off = 0;
    (void)DecodeFrame(buf, &off);
    (void)DecodeHelloAck(buf);
    (void)DecodePush(buf);
    (void)DecodeResult(buf);
  }
}

// A frame header advertising a huge payload must be rejected before any
// allocation of that size happens.
TEST_F(WireFuzz, OversizedFrameRejected) {
  std::string buf;
  PutVarint(static_cast<uint64_t>(kMaxFrameBytes) + 2, &buf);
  buf.push_back(static_cast<char>(FrameType::kPush));
  size_t off = 0;
  Result<Frame> r = DecodeFrame(buf, &off);
  EXPECT_FALSE(r.ok());
}

// An SRP bitmap naming an absurd role id is corruption, not a reason to
// allocate an absurd bitmap.
TEST_F(WireFuzz, HostileRoleIdRejected) {
  SecurityPunctuation sp = RandomSp();
  RoleSet roles;
  roles.Insert(static_cast<RoleId>(kMaxWireRoleId + 1));
  sp.SetResolvedRoles(std::move(roles));
  std::string buf;
  EncodeSp(sp, &buf, /*prefer_bitmap=*/true);
  size_t off = 0;
  Result<SecurityPunctuation> r = DecodeSp(buf, &off);
  EXPECT_FALSE(r.ok());
}

// Element counts are validated against the remaining bytes, so a hostile
// count cannot force a huge vector reservation.
TEST_F(WireFuzz, HostileElementCountRejected) {
  std::string buf;
  PutVarint(3, &buf);              // stream id
  PutVarint(1u << 30, &buf);       // "a billion elements follow"
  Result<PushPayload> r = DecodePush(buf);
  EXPECT_FALSE(r.ok());
}

// ScanPush is the server's shed-before-decode gate: it must agree with the
// full decoder on whether a PUSH frame carries security state (sp or
// control), because that classification is what protects sp-losslessness
// under load shedding. A disagreement in either direction is a bug — a
// false negative sheds an sp, a false positive wastes the shed.
TEST_F(WireFuzz, ScanPushAgreesWithFullDecoder) {
  for (int i = 0; i < 500; ++i) {
    PushPayload p;
    p.stream = static_cast<StreamId>(U64(8));
    const size_t n = U64(12);
    for (size_t k = 0; k < n; ++k) p.elements.push_back(RandomElement());
    std::string payload;
    EncodePush(p, &payload);

    Result<PushScan> scan = ScanPush(payload);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    bool any_security = false;
    for (const StreamElement& e : p.elements) {
      if (!e.is_tuple()) any_security = true;
    }
    EXPECT_EQ(scan->carries_security, any_security);
    EXPECT_EQ(scan->element_count, p.elements.size());
    // Cross-check against the authoritative decoder.
    Result<PushPayload> back = DecodePush(payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->elements.size(), scan->element_count);
  }
}

// Pure-tuple payloads are the ones the scanner walks end-to-end (it
// early-outs at the first sp/control), so exercise the full skip path.
TEST_F(WireFuzz, ScanPushWalksPureTuplePayloads) {
  for (int i = 0; i < 300; ++i) {
    PushPayload p;
    p.stream = static_cast<StreamId>(U64(8));
    const size_t n = U64(10);
    for (size_t k = 0; k < n; ++k) {
      p.elements.push_back(StreamElement(RandomTuple()));
    }
    std::string payload;
    EncodePush(p, &payload);
    Result<PushScan> scan = ScanPush(payload);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan->carries_security);
    EXPECT_EQ(scan->element_count, p.elements.size());
  }
}

// The scanner sees hostile bytes before any other validation runs, so it
// must fail cleanly (never crash, never over-read) on truncation and
// garbage, exactly like the full decoder.
TEST_F(WireFuzz, ScanPushTruncationAndGarbageCleanError) {
  for (int i = 0; i < 100; ++i) {
    PushPayload p;
    p.stream = static_cast<StreamId>(U64(8));
    const size_t n = 1 + U64(6);
    for (size_t k = 0; k < n; ++k) {
      p.elements.push_back(StreamElement(RandomTuple()));
    }
    std::string payload;
    EncodePush(p, &payload);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      Result<PushScan> r = ScanPush(std::string_view(payload.data(), cut));
      // A prefix may be self-consistent (fewer elements claimed than cut
      // off), but the call must return, not crash; just touch the result.
      if (r.ok()) {
        EXPECT_LE(r->element_count, p.elements.size());
      }
    }
  }
  for (int i = 0; i < 2000; ++i) {
    std::string garbage;
    const size_t len = U64(64);
    for (size_t k = 0; k < len; ++k) {
      garbage.push_back(static_cast<char>(U64(256)));
    }
    ScanPush(garbage);  // must not crash; ok/err both acceptable
  }
}

TEST_F(WireFuzz, ShedNoticeRoundTrip) {
  for (int i = 0; i < 200; ++i) {
    ShedNoticePayload p;
    p.dropped = U64(1u << 20);
    p.state = static_cast<uint8_t>(U64(3));
    std::string buf;
    EncodeShedNotice(p, &buf);
    Result<ShedNoticePayload> back = DecodeShedNotice(buf);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->dropped, p.dropped);
    EXPECT_EQ(back->state, p.state);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      EXPECT_FALSE(DecodeShedNotice(std::string_view(buf.data(), cut)).ok());
    }
  }
}

}  // namespace
}  // namespace spstream
