#include "security/pattern.h"

#include <charconv>

#include "common/string_util.h"
#include "security/role_catalog.h"
#include "security/role_set.h"

namespace spstream {

namespace {

bool ParseInt(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

const std::shared_ptr<const Pattern::Rep>& Pattern::AnyRep() {
  static const std::shared_ptr<const Rep> kAny = [] {
    auto rep = std::make_shared<Rep>();
    rep->text = "*";
    rep->alts.push_back({AltKind::kAny, "", 0, 0});
    return rep;
  }();
  return kAny;
}

Pattern::Pattern() : rep_(AnyRep()) {}

Pattern Pattern::Any() { return Pattern(); }

Pattern Pattern::Literal(std::string_view lit) {
  auto rep = std::make_shared<Rep>();
  rep->text = std::string(lit);
  rep->alts.push_back({AltKind::kLiteral, std::string(lit), 0, 0});
  return Pattern(std::move(rep));
}

Pattern Pattern::LiteralList(const std::vector<std::string>& lits) {
  auto rep = std::make_shared<Rep>();
  for (const std::string& lit : lits) {
    if (!rep->text.empty()) rep->text += '|';
    rep->text += lit;
    rep->alts.push_back({AltKind::kLiteral, lit, 0, 0});
  }
  return Pattern(std::move(rep));
}

Pattern Pattern::Range(int64_t lo, int64_t hi) {
  auto rep = std::make_shared<Rep>();
  rep->text = "[" + std::to_string(lo) + "-" + std::to_string(hi) + "]";
  rep->alts.push_back({AltKind::kRange, "", lo, hi});
  return Pattern(std::move(rep));
}

Result<Pattern> Pattern::Compile(std::string_view text) {
  auto rep = std::make_shared<Rep>();
  rep->text = std::string(Trim(text));
  if (rep->text.empty()) {
    return Status::ParseError("empty pattern");
  }
  for (const std::string& raw : Split(rep->text, '|')) {
    std::string_view alt = Trim(raw);
    if (alt.empty()) {
      return Status::ParseError("empty alternative in pattern '" +
                                rep->text + "'");
    }
    if (alt == "*") {
      rep->alts.push_back({AltKind::kAny, "", 0, 0});
      continue;
    }
    if (alt.front() == '[' && alt.back() == ']') {
      std::string_view body = alt.substr(1, alt.size() - 2);
      // Split on the dash separating the bounds; tolerate negative bounds by
      // searching for '-' after the first character.
      size_t dash = body.find('-', body.empty() ? 0 : 1);
      int64_t lo, hi;
      if (dash == std::string_view::npos ||
          !ParseInt(Trim(body.substr(0, dash)), &lo) ||
          !ParseInt(Trim(body.substr(dash + 1)), &hi)) {
        return Status::ParseError("malformed numeric range '" +
                                  std::string(alt) + "'");
      }
      if (lo > hi) {
        return Status::ParseError("inverted numeric range '" +
                                  std::string(alt) + "'");
      }
      rep->alts.push_back({AltKind::kRange, "", lo, hi});
      continue;
    }
    if (alt.find('*') != std::string_view::npos ||
        alt.find('?') != std::string_view::npos) {
      rep->alts.push_back({AltKind::kGlob, std::string(alt), 0, 0});
    } else {
      rep->alts.push_back({AltKind::kLiteral, std::string(alt), 0, 0});
    }
  }
  return Pattern(std::move(rep));
}

bool Pattern::GlobMatch(std::string_view pattern, std::string_view s) {
  // Iterative glob with single-star backtracking (classic two-pointer form).
  size_t pi = 0, si = 0;
  size_t star = std::string_view::npos, match = 0;
  while (si < s.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '?' || pattern[pi] == s[si])) {
      ++pi;
      ++si;
    } else if (pi < pattern.size() && pattern[pi] == '*') {
      star = pi++;
      match = si;
    } else if (star != std::string_view::npos) {
      pi = star + 1;
      si = ++match;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '*') ++pi;
  return pi == pattern.size();
}

bool Pattern::MatchesString(std::string_view s) const {
  for (const Alternative& alt : rep_->alts) {
    switch (alt.kind) {
      case AltKind::kAny:
        return true;
      case AltKind::kLiteral:
        if (alt.text == s) return true;
        break;
      case AltKind::kGlob:
        if (GlobMatch(alt.text, s)) return true;
        break;
      case AltKind::kRange: {
        int64_t v;
        if (ParseInt(s, &v) && v >= alt.lo && v <= alt.hi) return true;
        break;
      }
    }
  }
  return false;
}

bool Pattern::MatchesInt(int64_t v) const {
  for (const Alternative& alt : rep_->alts) {
    switch (alt.kind) {
      case AltKind::kAny:
        return true;
      case AltKind::kRange:
        if (v >= alt.lo && v <= alt.hi) return true;
        break;
      case AltKind::kLiteral:
      case AltKind::kGlob: {
        // Compare against the decimal rendering; cheap because tuple ids are
        // short. Avoided on hot paths by resolving patterns at admission.
        char buf[24];
        auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
        (void)ec;
        std::string_view sv(buf, static_cast<size_t>(ptr - buf));
        if (alt.kind == AltKind::kLiteral ? (alt.text == sv)
                                          : GlobMatch(alt.text, sv)) {
          return true;
        }
        break;
      }
    }
  }
  return false;
}

bool Pattern::IsAny() const {
  if (rep_ == AnyRep()) return true;
  for (const Alternative& alt : rep_->alts) {
    if (alt.kind == AltKind::kAny) return true;
  }
  return false;
}

bool Pattern::IsLiteralList() const {
  for (const Alternative& alt : rep_->alts) {
    if (alt.kind != AltKind::kLiteral) return false;
  }
  return !rep_->alts.empty();
}

std::vector<std::string> Pattern::LiteralAlternatives() const {
  std::vector<std::string> out;
  if (!IsLiteralList()) return out;
  out.reserve(rep_->alts.size());
  for (const Alternative& alt : rep_->alts) out.push_back(alt.text);
  return out;
}

RoleSet Pattern::EvalRoles(const RoleCatalog& catalog) const {
  RoleSet roles;
  if (IsLiteralList()) {
    for (const Alternative& alt : rep_->alts) {
      auto id = catalog.Lookup(alt.text);
      if (id.ok()) roles.Insert(*id);
    }
    return roles;
  }
  for (RoleId id = 0; id < catalog.size(); ++id) {
    if (MatchesString(catalog.Name(id))) roles.Insert(id);
  }
  return roles;
}

size_t Pattern::MemoryBytes() const {
  size_t bytes = sizeof(Pattern) + sizeof(Rep) + rep_->text.capacity();
  for (const Alternative& alt : rep_->alts) {
    bytes += sizeof(Alternative) + alt.text.capacity();
  }
  return bytes;
}

}  // namespace spstream
