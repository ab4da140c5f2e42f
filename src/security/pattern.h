// The regex-lite pattern language used inside security punctuations.
//
// Definition 3.1 describes DDP/SRP fields as regular expressions against
// stream names, tuple identifiers, attribute names and role names, with the
// paper's examples being of the shape "ids between 120 and 133", "streams
// s1,s2", "any". We compile a compact dialect that covers those shapes with
// O(length) matching (std::regex is far too slow for per-punctuation work):
//
//   pattern     := alternative ('|' alternative)*
//   alternative := '*'                      -- matches anything
//                | '[' int '-' int ']'      -- inclusive numeric range
//                | glob                     -- literal with '*' / '?' wildcards
//
// Examples: "*", "s1|s2", "[120-133]", "hr_*", "patient_?2".
//
// Compiled patterns are immutable and share their representation: copying a
// Pattern (and hence a SecurityPunctuation) is one refcount bump, which
// keeps per-punctuation engine work cheap even at a 1/1 sp:tuple ratio.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace spstream {

class RoleCatalog;
class RoleSet;

/// \brief One compiled pattern (a disjunction of alternatives).
class Pattern {
 public:
  /// \brief An uncompiled, match-all pattern ("*").
  Pattern();

  /// \brief Compile `text`; ParseError on malformed input (e.g. "[5-]").
  static Result<Pattern> Compile(std::string_view text);

  /// \brief Match-all pattern.
  static Pattern Any();

  /// \brief Pattern matching exactly one literal.
  static Pattern Literal(std::string_view lit);

  /// \brief Pattern matching any of `lits` (non-empty), one literal
  /// alternative each, with text "a|b|..."; nothing is parsed, so a name
  /// containing '*' or '?' stays a literal.
  static Pattern LiteralList(const std::vector<std::string>& lits);

  /// \brief Pattern matching the inclusive integer range [lo, hi].
  static Pattern Range(int64_t lo, int64_t hi);

  /// \brief True if the string matches any alternative. Numeric alternatives
  /// match strings that parse as in-range integers.
  bool MatchesString(std::string_view s) const;

  /// \brief True if the integer matches any alternative (ranges compare
  /// numerically; globs match the decimal rendering).
  bool MatchesInt(int64_t v) const;

  /// \brief True for the single-alternative "*" pattern.
  bool IsAny() const;

  /// \brief True if the pattern is a union of pure literals (no wildcards or
  /// ranges) — the common fast path for role lists like "C|ND".
  bool IsLiteralList() const;

  /// \brief The literals of a literal-list pattern (empty otherwise).
  std::vector<std::string> LiteralAlternatives() const;

  /// \brief eval(R, e_r): resolve against a role catalog to a bitmap.
  /// Literal-list patterns resolve by direct lookup; general patterns scan
  /// the catalog once.
  RoleSet EvalRoles(const RoleCatalog& catalog) const;

  /// \brief Canonical source text (round-trips through Compile).
  const std::string& text() const { return rep_->text; }

  bool operator==(const Pattern& other) const {
    return rep_ == other.rep_ || rep_->text == other.rep_->text;
  }
  bool operator!=(const Pattern& other) const { return !(*this == other); }

  size_t MemoryBytes() const;

 private:
  enum class AltKind : uint8_t { kAny, kLiteral, kGlob, kRange };
  struct Alternative {
    AltKind kind;
    std::string text;  // literal or glob body
    int64_t lo = 0, hi = 0;
  };
  struct Rep {
    std::string text;
    std::vector<Alternative> alts;
  };

  explicit Pattern(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  static bool GlobMatch(std::string_view pattern, std::string_view s);
  static const std::shared_ptr<const Rep>& AnyRep();

  std::shared_ptr<const Rep> rep_;
};

}  // namespace spstream
