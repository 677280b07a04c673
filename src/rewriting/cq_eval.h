#ifndef ESTOCADA_REWRITING_CQ_EVAL_H_
#define ESTOCADA_REWRITING_CQ_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/value.h"
#include "pivot/query.h"

namespace estocada::rewriting {

/// One staged (in-memory, pivot-level) relation: the application dataset's
/// ground truth from which fragments are materialized.
struct StagingRelation {
  std::vector<std::string> columns;
  std::vector<engine::Row> rows;
};

/// Dataset relation name -> staged rows.
using StagingData = std::map<std::string, StagingRelation>;

/// Evaluates a conjunctive query over staged relations. Each atom scans
/// its staged rows in place and keeps those whose ground terms and
/// repeated variables hold (AtomFilter, under Value's equality: null
/// equals null, and 1 equals 1.0); atoms join by hash joins in greedy
/// bound-first order, each building on the new atom's rows and streaming
/// the running result as the probe side; the survivors are projected to
/// the head.
/// `parameters` supplies values for '$'-prefixed variables. The result
/// applies set semantics when `distinct` is set.
Result<std::vector<engine::Row>> EvaluateCqOverStaging(
    const pivot::ConjunctiveQuery& query, const StagingData& staging,
    const std::map<std::string, engine::Value>& parameters = {},
    bool distinct = true);

/// The delta rule for one inserted tuple: evaluates `query` (set
/// semantics) with body atom `atom` reading only `new_row` instead of its
/// staged relation; every other atom reads the staging, which already
/// holds the tuple. Each variable the atom binds is pinned to the row's
/// value and pushed into the other atoms and the head as a constant.
Result<std::vector<engine::Row>> EvaluateCqDeltaOverStaging(
    const pivot::ConjunctiveQuery& query, const StagingData& staging,
    size_t atom, const engine::Row& new_row);

}  // namespace estocada::rewriting

#endif  // ESTOCADA_REWRITING_CQ_EVAL_H_
