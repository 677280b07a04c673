#ifndef ESTOCADA_PACB_NAIVE_H_
#define ESTOCADA_PACB_NAIVE_H_

#include "pacb/rewriter.h"

namespace estocada::pacb {

/// The classical (pre-PACB) Chase & Backchase: build the universal plan by
/// the forward chase, then *enumerate subqueries of the universal plan
/// bottom-up by size* and run a full chase-based equivalence check on each
/// one. This is the algorithm "long considered too inefficient to be of
/// practical relevance" that the paper contrasts PACB against; bench E3
/// reproduces the 1–2 orders of magnitude gap.
///
/// Implemented as a thin driver over Rewriter with provenance tracking
/// off, so both algorithms share the chase machinery and the comparison
/// isolates exactly the provenance bookkeeping.
class NaiveChaseBackchase {
 public:
  NaiveChaseBackchase(pivot::Schema schema, std::vector<ViewDefinition> views)
      : rewriter_(std::move(schema), std::move(views)) {}

  Status Prepare() { return rewriter_.Prepare(); }

  /// Same contract as Rewriter::Rewrite. `options.naive_max_subset` caps
  /// the enumerated subquery size (0 = universal plan size).
  Result<RewritingResult> Rewrite(const pivot::ConjunctiveQuery& query,
                                  RewriterOptions options = {}) const {
    options.track_provenance = false;
    return rewriter_.Rewrite(query, options);
  }

  const Rewriter& rewriter() const { return rewriter_; }

 private:
  Rewriter rewriter_;
};

}  // namespace estocada::pacb

#endif  // ESTOCADA_PACB_NAIVE_H_
