#include "security/security_punctuation.h"

#include <cassert>
#include <charconv>

#include "common/string_util.h"

namespace spstream {

const char* AccessControlModelToString(AccessControlModel model) {
  switch (model) {
    case AccessControlModel::kRbac:
      return "RBAC";
    case AccessControlModel::kDac:
      return "DAC";
    case AccessControlModel::kMac:
      return "MAC";
  }
  return "RBAC";
}

Result<AccessControlModel> AccessControlModelFromString(std::string_view s) {
  if (EqualsIgnoreCase(s, "RBAC")) return AccessControlModel::kRbac;
  if (EqualsIgnoreCase(s, "DAC")) return AccessControlModel::kDac;
  if (EqualsIgnoreCase(s, "MAC")) return AccessControlModel::kMac;
  return Status::ParseError("unknown access control model: " +
                            std::string(s));
}

const RoleSet& SecurityPunctuation::ResolveRoles(const RoleCatalog& catalog) {
  if (!resolved_roles_) {
    resolved_roles_ = role_pattern_.EvalRoles(catalog);
    audit_texts_.reset();
  }
  return *resolved_roles_;
}

std::string SecurityPunctuation::ToString() const {
  std::string out = "SP[ddp=(";
  out += stream_pattern_.text();
  out += ", ";
  out += tuple_pattern_.text();
  out += ", ";
  out += attr_pattern_.text();
  out += "), srp=(";
  out += AccessControlModelToString(model_);
  out += ", ";
  out += role_pattern_.text();
  out += "), sign=";
  out += sign_ == Sign::kPositive ? '+' : '-';
  out += ", immutable=";
  out += immutable_ ? "true" : "false";
  if (incremental_) out += ", incremental=true";
  out += ", ts=";
  out += std::to_string(ts_);
  out += "]";
  return out;
}

namespace {

// Extracts the parenthesized body following "key=(" in `text`, searching
// from `from`; returns npos-pair on failure.
Status ExtractParen(std::string_view text, std::string_view key,
                    std::string_view* body) {
  std::string needle = std::string(key) + "=(";
  size_t at = text.find(needle);
  if (at == std::string_view::npos) {
    return Status::ParseError("missing '" + std::string(key) +
                              "=(...)' in sp text");
  }
  size_t open = at + needle.size();
  size_t close = text.find(')', open);
  if (close == std::string_view::npos) {
    return Status::ParseError("unterminated '" + std::string(key) +
                              "' group in sp text");
  }
  *body = text.substr(open, close - open);
  return Status::OK();
}

Status ExtractScalar(std::string_view text, std::string_view key,
                     std::string_view* out) {
  std::string needle = std::string(key) + "=";
  size_t at = text.find(needle);
  if (at == std::string_view::npos) {
    return Status::ParseError("missing '" + std::string(key) +
                              "=' in sp text");
  }
  size_t start = at + needle.size();
  size_t end = start;
  while (end < text.size() && text[end] != ',' && text[end] != ']') ++end;
  *out = Trim(text.substr(start, end - start));
  return Status::OK();
}

}  // namespace

Result<SecurityPunctuation> SecurityPunctuation::Parse(std::string_view text) {
  std::string_view body = Trim(text);
  if (!StartsWith(body, "SP[") || body.back() != ']') {
    return Status::ParseError("sp text must look like SP[...]: " +
                              std::string(text));
  }

  std::string_view ddp, srp;
  SP_RETURN_NOT_OK(ExtractParen(body, "ddp", &ddp));
  SP_RETURN_NOT_OK(ExtractParen(body, "srp", &srp));

  auto ddp_parts = Split(ddp, ',');
  if (ddp_parts.size() != 3) {
    return Status::ParseError("ddp must have 3 comma-separated patterns: (" +
                              std::string(ddp) + ")");
  }
  auto srp_parts = Split(srp, ',');
  if (srp_parts.size() != 2) {
    return Status::ParseError("srp must be (model, role-pattern): (" +
                              std::string(srp) + ")");
  }

  SP_ASSIGN_OR_RETURN(Pattern es, Pattern::Compile(Trim(ddp_parts[0])));
  SP_ASSIGN_OR_RETURN(Pattern et, Pattern::Compile(Trim(ddp_parts[1])));
  SP_ASSIGN_OR_RETURN(Pattern ea, Pattern::Compile(Trim(ddp_parts[2])));
  SP_ASSIGN_OR_RETURN(AccessControlModel model,
                      AccessControlModelFromString(Trim(srp_parts[0])));
  SP_ASSIGN_OR_RETURN(Pattern er, Pattern::Compile(Trim(srp_parts[1])));

  std::string_view sign_sv, imm_sv, ts_sv;
  SP_RETURN_NOT_OK(ExtractScalar(body, "sign", &sign_sv));
  SP_RETURN_NOT_OK(ExtractScalar(body, "immutable", &imm_sv));
  SP_RETURN_NOT_OK(ExtractScalar(body, "ts", &ts_sv));

  Sign sign;
  if (sign_sv == "+" || EqualsIgnoreCase(sign_sv, "positive")) {
    sign = Sign::kPositive;
  } else if (sign_sv == "-" || EqualsIgnoreCase(sign_sv, "negative")) {
    sign = Sign::kNegative;
  } else {
    return Status::ParseError("sign must be +/-/positive/negative, got '" +
                              std::string(sign_sv) + "'");
  }

  bool immutable;
  if (EqualsIgnoreCase(imm_sv, "true") || EqualsIgnoreCase(imm_sv, "T")) {
    immutable = true;
  } else if (EqualsIgnoreCase(imm_sv, "false") ||
             EqualsIgnoreCase(imm_sv, "F")) {
    immutable = false;
  } else {
    return Status::ParseError("immutable must be true/false, got '" +
                              std::string(imm_sv) + "'");
  }

  Timestamp ts = 0;
  {
    auto [ptr, ec] =
        std::from_chars(ts_sv.data(), ts_sv.data() + ts_sv.size(), ts);
    if (ec != std::errc() || ptr != ts_sv.data() + ts_sv.size()) {
      return Status::ParseError("bad ts '" + std::string(ts_sv) + "'");
    }
  }

  // Optional incremental flag (extension; absent means absolute).
  bool incremental = false;
  {
    std::string_view inc_sv;
    if (ExtractScalar(body, "incremental", &inc_sv).ok()) {
      incremental = EqualsIgnoreCase(inc_sv, "true");
    }
  }

  SecurityPunctuation sp(std::move(es), std::move(et), std::move(ea),
                         std::move(er), sign, immutable, ts, model);
  sp.set_incremental(incremental);
  return sp;
}

bool SecurityPunctuation::operator==(const SecurityPunctuation& other) const {
  return stream_pattern_ == other.stream_pattern_ &&
         tuple_pattern_ == other.tuple_pattern_ &&
         attr_pattern_ == other.attr_pattern_ &&
         role_pattern_ == other.role_pattern_ && model_ == other.model_ &&
         sign_ == other.sign_ && immutable_ == other.immutable_ &&
         incremental_ == other.incremental_ && ts_ == other.ts_;
}

size_t SecurityPunctuation::MemoryBytes() const {
  size_t bytes = sizeof(SecurityPunctuation) - sizeof(audit_texts_);
  bytes += stream_pattern_.MemoryBytes() - sizeof(Pattern);
  bytes += tuple_pattern_.MemoryBytes() - sizeof(Pattern);
  bytes += attr_pattern_.MemoryBytes() - sizeof(Pattern);
  bytes += role_pattern_.MemoryBytes() - sizeof(Pattern);
  if (resolved_roles_) {
    bytes += resolved_roles_->MemoryBytes() - sizeof(RoleSet);
  }
  return bytes;
}

Policy BuildBatchPolicy(const std::vector<SecurityPunctuation>& batch) {
  assert(!batch.empty());
  PolicyBuilder builder(batch.front().ts());
  for (const SecurityPunctuation& sp : batch) {
    assert(sp.roles_resolved() &&
           "ResolveRoles must run (SP Analyzer) before policy assembly");
    if (sp.sign() == Sign::kPositive) {
      builder.AddPositive(sp.roles());
    } else {
      builder.AddNegative(sp.roles());
    }
  }
  return builder.Build();
}

}  // namespace spstream
