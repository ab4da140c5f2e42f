#include "analyzer/sp_analyzer.h"

namespace spstream {

Status SpAnalyzer::AddServerPolicy(SecurityPunctuation sp) {
  if (!sp.AppliesToStream(stream_name_)) {
    return Status::InvalidArgument(
        "server policy DDP does not cover stream '" + stream_name_ + "'");
  }
  if (sp.sign() != Sign::kPositive) {
    return Status::Unimplemented(
        "negative server policies are not supported; express the "
        "restriction as a narrower positive role set");
  }
  sp.ResolveRoles(*catalog_);
  server_policies_.push_back(std::move(sp));
  return Status::OK();
}

void SpAnalyzer::RefineWithServerPolicies(SecurityPunctuation* sp) {
  if (server_policies_.empty()) return;
  if (sp->immutable()) {
    // The data provider forbade server-side modification (§III.E).
    ++stats_.immutable_preserved;
    return;
  }
  if (sp->sign() != Sign::kPositive) return;  // denials are never widened
  for (const SecurityPunctuation& server : server_policies_) {
    // A server policy refines sps whose object scope it overlaps. Pattern
    // containment is undecidable in general; we refine when the server
    // policy covers this whole stream or the sp is stream-granular —
    // per-object server policies are matched by tuple-pattern text.
    const bool overlaps =
        server.tuple_pattern().IsAny() || sp->tuple_pattern().IsAny() ||
        server.tuple_pattern().text() == sp->tuple_pattern().text();
    if (!overlaps) continue;
    RoleSet refined =
        RoleSet::Intersect(sp->roles(), server.roles());
    sp->SetResolvedRoles(std::move(refined));
    ++stats_.sps_refined_by_server;
  }
}

bool SpAnalyzer::CombineIntoBatch(SecurityPunctuation* sp) {
  for (SecurityPunctuation& existing : pending_batch_) {
    if (existing.sign() == sp->sign() &&
        existing.immutable() == sp->immutable() &&
        existing.stream_pattern() == sp->stream_pattern() &&
        existing.tuple_pattern() == sp->tuple_pattern() &&
        existing.attr_pattern() == sp->attr_pattern()) {
      RoleSet merged = existing.roles();
      merged.UnionWith(sp->roles());
      existing.SetResolvedRoles(std::move(merged));
      return true;
    }
  }
  return false;
}

std::vector<StreamElement> SpAnalyzer::Process(StreamElement elem) {
  std::vector<StreamElement> out;
  if (elem.is_sp()) {
    ++stats_.sps_in;
    SecurityPunctuation sp = std::move(elem.sp());
    sp.ResolveRoles(*catalog_);
    if (catalog_->has_hierarchy()) {
      // RBAC1 extension: a grant (or denial) of a role also applies to
      // every role inheriting it. Expanding once at admission keeps all
      // downstream policy work on plain bitmaps.
      sp.SetResolvedRoles(ExpandWithSeniors(sp.roles(), *catalog_));
    }
    RefineWithServerPolicies(&sp);

    if (batch_ts_ && *batch_ts_ != sp.ts()) {
      ReleasePending(&out);  // new batch begins: release the previous one
    }
    batch_ts_ = sp.ts();
    if (CombineIntoBatch(&sp)) {
      ++stats_.sps_combined;
    } else {
      pending_batch_.push_back(std::move(sp));
    }
    return out;
  }

  // Tuples (and controls) flush the pending batch ahead of themselves so
  // the sp-precedes-its-tuples invariant holds downstream.
  ReleasePending(&out);
  out.push_back(std::move(elem));
  return out;
}

std::vector<StreamElement> SpAnalyzer::Flush() {
  std::vector<StreamElement> out;
  ReleasePending(&out);
  return out;
}

void SpAnalyzer::ReleasePending(std::vector<StreamElement>* out) {
  if (pending_batch_.empty()) return;
  for (SecurityPunctuation& pending : pending_batch_) {
    ++stats_.sps_out;
    out->emplace_back(std::move(pending));
  }
  pending_batch_.clear();
  batch_ts_.reset();
}

}  // namespace spstream
