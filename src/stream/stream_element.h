// A stream is a sequence of elements: data tuples interleaved with security
// punctuations (Figure 1), plus engine-internal control marks.
#pragma once

#include <cassert>
#include <string>
#include <variant>

#include "security/security_punctuation.h"
#include "stream/tuple.h"

namespace spstream {

/// \brief Engine-internal control marks (not part of the paper's model):
/// kEndOfStream terminates a source (FeedToEnd appends one to each finite
/// input). kFlush is a mark that no operator acts on: operators forward
/// controls unchanged, and the wire codec carries both kinds.
enum class ControlKind : uint8_t { kFlush = 0, kEndOfStream };

struct Control {
  ControlKind kind = ControlKind::kFlush;
  Timestamp ts = 0;
};

/// \brief One element of a punctuated stream.
class StreamElement {
 public:
  /*implicit*/ StreamElement(Tuple t) : var_(std::move(t)) {}
  /*implicit*/ StreamElement(SecurityPunctuation sp) : var_(std::move(sp)) {}
  /*implicit*/ StreamElement(Control c) : var_(c) {}

  static StreamElement EndOfStream(Timestamp ts) {
    return StreamElement(Control{ControlKind::kEndOfStream, ts});
  }
  static StreamElement Flush(Timestamp ts) {
    return StreamElement(Control{ControlKind::kFlush, ts});
  }

  bool is_tuple() const { return std::holds_alternative<Tuple>(var_); }
  bool is_sp() const {
    return std::holds_alternative<SecurityPunctuation>(var_);
  }
  bool is_control() const { return std::holds_alternative<Control>(var_); }
  bool is_end_of_stream() const {
    return is_control() && control().kind == ControlKind::kEndOfStream;
  }

  const Tuple& tuple() const { return std::get<Tuple>(var_); }
  Tuple& tuple() { return std::get<Tuple>(var_); }
  const SecurityPunctuation& sp() const {
    return std::get<SecurityPunctuation>(var_);
  }
  SecurityPunctuation& sp() { return std::get<SecurityPunctuation>(var_); }
  const Control& control() const { return std::get<Control>(var_); }

  Timestamp ts() const {
    if (is_tuple()) return tuple().ts;
    if (is_sp()) return sp().ts();
    return control().ts;
  }

  std::string ToString() const;

  size_t MemoryBytes() const {
    if (is_tuple()) return tuple().MemoryBytes();
    if (is_sp()) return sp().MemoryBytes();
    return sizeof(Control);
  }

 private:
  std::variant<Tuple, SecurityPunctuation, Control> var_;
};

}  // namespace spstream
