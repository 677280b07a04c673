#include <gtest/gtest.h>

#include <set>

#include "chase/homomorphism.h"
#include "chase/instance.h"
#include "common/rng.h"
#include "common/strings.h"
#include "encoding/encodings.h"
#include "pacb/feasibility.h"
#include "pacb/naive.h"
#include "pacb/rewriter.h"
#include "pacb/view.h"
#include "pivot/parser.h"

namespace estocada::pacb {
namespace {

using ::estocada::StrCat;
using pivot::Adornment;
using pivot::Atom;
using pivot::ConjunctiveQuery;
using pivot::ParseQuery;
using pivot::Schema;
using pivot::Term;

ConjunctiveQuery Q(std::string_view text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

ViewDefinition View(std::string_view text,
                    std::vector<Adornment> adornments = {}) {
  ViewDefinition v;
  v.query = Q(text);
  v.adornments = std::move(adornments);
  return v;
}

Schema SchemaWith(std::initializer_list<std::pair<const char*, size_t>> rels,
                  std::string_view deps_text = "") {
  Schema s;
  for (const auto& [name, arity] : rels) {
    EXPECT_TRUE(s.AddRelation(name, arity).ok());
  }
  if (!deps_text.empty()) {
    auto deps = pivot::ParseDependencies(deps_text);
    EXPECT_TRUE(deps.ok()) << deps.status();
    for (auto& d : *deps) s.AddDependency(std::move(d));
  }
  return s;
}

TEST(ViewConstraintsTest, ForwardAndBackwardShape) {
  auto vc = MakeViewConstraints(View("V(x, z) :- R(x, y), S(y, z)"));
  ASSERT_TRUE(vc.ok()) << vc.status();
  ASSERT_TRUE(vc->forward.is_tgd());
  ASSERT_TRUE(vc->backward.is_tgd());
  EXPECT_EQ(vc->forward.tgd.head.size(), 1u);
  EXPECT_EQ(vc->forward.tgd.head[0].relation, "V");
  EXPECT_TRUE(vc->forward.tgd.ExistentialVariables().empty());
  // Backward re-invents the projected-away join variable.
  EXPECT_EQ(vc->backward.tgd.ExistentialVariables(),
            (std::vector<std::string>{"y"}));
}

TEST(ViewConstraintsTest, RejectsUnsafeView) {
  ViewDefinition v;
  v.query.name = "V";
  v.query.head = {Term::Var("x")};
  // Empty body.
  EXPECT_FALSE(MakeViewConstraints(v).ok());
}

TEST(ViewConstraintsTest, RejectsAdornmentMismatch) {
  ViewDefinition v = View("V(x) :- R(x, y)");
  v.adornments = {Adornment::kInput, Adornment::kFree};  // arity is 1
  EXPECT_EQ(MakeViewConstraints(v).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FeasibilityTest, FreeRelationsAlwaysFeasible) {
  auto atoms = pivot::ParseAtomList("R(x, y), S(y, z)");
  ASSERT_TRUE(atoms.ok());
  EXPECT_TRUE(IsFeasible(*atoms, {}));
}

TEST(FeasibilityTest, InputPositionNeedsProvider) {
  AdornmentMap ad;
  ad["KV"] = {Adornment::kInput, Adornment::kFree};
  // Key not bound by anything: infeasible.
  auto bare = pivot::ParseAtomList("KV(k, v)");
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(IsFeasible(*bare, ad));
  // Key produced by an earlier-orderable free atom: feasible.
  auto chained = pivot::ParseAtomList("KV(k, v), Users(u, k)");
  ASSERT_TRUE(chained.ok());
  EXPECT_TRUE(IsFeasible(*chained, ad));
  auto order = FeasibleOrder(*chained, ad);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // Users first, then KV.
  EXPECT_EQ(order[1], 0u);
}

TEST(FeasibilityTest, ParameterBindsInput) {
  AdornmentMap ad;
  ad["KV"] = {Adornment::kInput, Adornment::kFree};
  auto atoms = pivot::ParseAtomList("KV($uid, v)");
  ASSERT_TRUE(atoms.ok());
  EXPECT_TRUE(IsFeasible(*atoms, ad));
}

TEST(FeasibilityTest, ConstantBindsInput) {
  AdornmentMap ad;
  ad["KV"] = {Adornment::kInput, Adornment::kFree};
  auto atoms = pivot::ParseAtomList("KV('cart17', v)");
  ASSERT_TRUE(atoms.ok());
  EXPECT_TRUE(IsFeasible(*atoms, ad));
}

TEST(FeasibilityTest, MutualDeadlockInfeasible) {
  AdornmentMap ad;
  ad["A"] = {Adornment::kInput, Adornment::kFree};
  ad["B"] = {Adornment::kInput, Adornment::kFree};
  // A needs x (from B), B needs y (from A): deadlock.
  auto atoms = pivot::ParseAtomList("A(x, y), B(y, x)");
  ASSERT_TRUE(atoms.ok());
  EXPECT_FALSE(IsFeasible(*atoms, ad));
}

TEST(FeasibilityTest, ParameterVariableDetection) {
  EXPECT_TRUE(IsParameterVariable("$uid"));
  EXPECT_FALSE(IsParameterVariable("uid"));
  EXPECT_FALSE(IsParameterVariable(""));
}

class RewriterTest : public ::testing::Test {
 protected:
  RewritingResult MustRewrite(const Schema& schema,
                              std::vector<ViewDefinition> views,
                              const ConjunctiveQuery& q,
                              RewriterOptions options = {}) {
    Rewriter rw(schema, std::move(views));
    EXPECT_TRUE(rw.Prepare().ok());
    auto result = rw.Rewrite(q, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  }
};

TEST_F(RewriterTest, IdentityView) {
  Schema s = SchemaWith({{"R", 2}});
  auto result = MustRewrite(s, {View("V(x, y) :- R(x, y)")},
                            Q("q(x, y) :- R(x, y)"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body[0].relation, "V");
}

TEST_F(RewriterTest, JoinOfTwoViews) {
  Schema s = SchemaWith({{"R", 2}, {"S", 2}});
  auto result = MustRewrite(
      s, {View("V1(x, y) :- R(x, y)"), View("V2(y, z) :- S(y, z)")},
      Q("q(x, z) :- R(x, y), S(y, z)"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  const auto& body = result.rewritings[0].query.body;
  ASSERT_EQ(body.size(), 2u);
  std::set<std::string> rels{body[0].relation, body[1].relation};
  EXPECT_EQ(rels, (std::set<std::string>{"V1", "V2"}));
  // Join variable must be shared between the two atoms.
  EXPECT_EQ(body[0].terms[1], body[1].terms[0]);
}

TEST_F(RewriterTest, MaterializedJoinViewPreferred) {
  // Both the two base views and the materialized join view can answer the
  // query; the join view gives a single-atom (smaller) rewriting first.
  Schema s = SchemaWith({{"R", 2}, {"S", 2}});
  auto result = MustRewrite(
      s,
      {View("V1(x, y) :- R(x, y)"), View("V2(y, z) :- S(y, z)"),
       View("VJ(x, z) :- R(x, y), S(y, z)")},
      Q("q(x, z) :- R(x, y), S(y, z)"));
  ASSERT_GE(result.rewritings.size(), 2u);
  EXPECT_EQ(result.rewritings[0].query.body.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body[0].relation, "VJ");
  // And the two-view join is also reported (minimal, incomparable).
  EXPECT_EQ(result.rewritings[1].query.body.size(), 2u);
}

TEST_F(RewriterTest, NoRewritingWhenViewLosesHeadVariable) {
  // The view projects y away, so q(x,y) cannot be answered.
  Schema s = SchemaWith({{"R", 2}});
  auto result = MustRewrite(s, {View("V(x) :- R(x, y)")},
                            Q("q(x, y) :- R(x, y)"));
  EXPECT_TRUE(result.rewritings.empty());
}

TEST_F(RewriterTest, NoRewritingWhenViewOverSelects) {
  // View restricts to 'a'; query asks for everything: view alone is not
  // an exact rewriting.
  Schema s = SchemaWith({{"R", 2}});
  auto result = MustRewrite(s, {View("V(x, y) :- R(x, y), R(x, 'a')")},
                            Q("q(x, y) :- R(x, y)"));
  EXPECT_TRUE(result.rewritings.empty());
}

TEST_F(RewriterTest, SelectionViewAnswersSelectionQuery) {
  Schema s = SchemaWith({{"R", 2}});
  auto result = MustRewrite(s, {View("V(x) :- R(x, 'paris')")},
                            Q("q(x) :- R(x, 'paris')"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body[0].relation, "V");
}

TEST_F(RewriterTest, ConstraintEnablesRewriting) {
  // Query asks Desc; view stores Child. Only the Child⊆Desc axiom makes
  // the rewriting valid... but it is NOT exact (Desc may contain more),
  // so no rewriting must be returned. Conversely a view storing Desc
  // answers a Child query only if constraints force equality — they
  // don't. This test pins down exactness.
  Schema s = SchemaWith({{"Child", 2}, {"Desc", 2}},
                        "Child(p, c) -> Desc(p, c)");
  auto none = MustRewrite(s, {View("V(p, c) :- Child(p, c)")},
                          Q("q(a, d) :- Desc(a, d)"));
  EXPECT_TRUE(none.rewritings.empty());
  // A view storing Desc answers the Desc query exactly.
  auto some = MustRewrite(s, {View("V(a, d) :- Desc(a, d)")},
                          Q("q(a, d) :- Desc(a, d)"));
  EXPECT_EQ(some.rewritings.size(), 1u);
}

TEST_F(RewriterTest, KeyConstraintMergesLossyViews) {
  // R(k -> v). V1 stores keys with value-predicate S; V2 stores (k,v).
  // q(k,v) over R ⋈ S needs the key EGD to know V1's v equals V2's v.
  Schema s = SchemaWith({{"R", 2}, {"S", 1}},
                        "R(k, a), R(k, b) -> a = b");
  auto result = MustRewrite(
      s,
      {View("V1(k) :- R(k, v), S(v)"), View("V2(k, v) :- R(k, v)")},
      Q("q(k, v) :- R(k, v), S(v)"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body.size(), 2u);
}

TEST_F(RewriterTest, WithoutKeyConstraintNoMerge) {
  // Same as above without the EGD: V1 ⋈ V2 is NOT exact (V1's witness v
  // may differ from V2's v).
  Schema s = SchemaWith({{"R", 2}, {"S", 1}});
  auto result = MustRewrite(
      s,
      {View("V1(k) :- R(k, v), S(v)"), View("V2(k, v) :- R(k, v)")},
      Q("q(k, v) :- R(k, v), S(v)"));
  EXPECT_TRUE(result.rewritings.empty());
}

TEST_F(RewriterTest, ParameterizedKeyLookupThroughKvView) {
  // A key-value fragment with an input-adorned key answers a $-param
  // lookup; without the parameter, the rewriting is infeasible and
  // filtered out.
  Schema s = SchemaWith({{"Cart", 2}});
  std::vector<ViewDefinition> views{
      View("KVCart(u, c) :- Cart(u, c)",
           {Adornment::kInput, Adornment::kFree})};
  auto with_param = MustRewrite(s, views, Q("q(c) :- Cart($uid, c)"));
  ASSERT_EQ(with_param.rewritings.size(), 1u);
  // Head var is the payload; key parameter name survives the round trip.
  EXPECT_EQ(with_param.rewritings[0].query.body[0].terms[0],
            Term::Var("$uid"));

  auto scan = MustRewrite(s, views, Q("q(u, c) :- Cart(u, c)"));
  EXPECT_TRUE(scan.rewritings.empty());  // Infeasible: key unbound.
}

TEST_F(RewriterTest, BindJoinChainIsFeasible) {
  // Free view provides user ids; KV view needs them as input: the
  // rewriting exists and is feasible (evaluated with a BindJoin).
  Schema s = SchemaWith({{"Users", 2}, {"Cart", 2}});
  auto result = MustRewrite(
      s,
      {View("VUsers(u, n) :- Users(u, n)"),
       View("KVCart(u, c) :- Cart(u, c)",
            {Adornment::kInput, Adornment::kFree})},
      Q("q(n, c) :- Users(u, n), Cart(u, c)"));
  // Infeasible rewritings are dropped, so the one returned is feasible.
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body.size(), 2u);
}

TEST_F(RewriterTest, MultipleMinimalRewritingsReported) {
  Schema s = SchemaWith({{"R", 2}});
  auto result = MustRewrite(
      s, {View("V1(x, y) :- R(x, y)"), View("V2(x, y) :- R(x, y)")},
      Q("q(x, y) :- R(x, y)"));
  EXPECT_EQ(result.rewritings.size(), 2u);  // Both single-atom rewritings.
}

TEST_F(RewriterTest, MaxRewritingsCap) {
  Schema s = SchemaWith({{"R", 2}});
  std::vector<ViewDefinition> views;
  for (int i = 0; i < 6; ++i) {
    views.push_back(View(StrCat("V", i, "(x, y) :- R(x, y)")));
  }
  RewriterOptions opts;
  opts.max_rewritings = 3;
  auto result = MustRewrite(s, views, Q("q(x, y) :- R(x, y)"), opts);
  EXPECT_EQ(result.rewritings.size(), 3u);
}

TEST_F(RewriterTest, StatsArePopulated) {
  Schema s = SchemaWith({{"R", 2}, {"S", 2}});
  auto result = MustRewrite(
      s, {View("V1(x, y) :- R(x, y)"), View("V2(y, z) :- S(y, z)")},
      Q("q(x, z) :- R(x, y), S(y, z)"));
  EXPECT_EQ(result.stats.universal_plan_atoms, 2u);
  EXPECT_GE(result.stats.query_matches, 1u);
  EXPECT_GE(result.stats.candidates_considered, 1u);
  EXPECT_EQ(result.stats.rewritings_found, result.rewritings.size());
}

TEST_F(RewriterTest, RewriteWithoutPrepareFails) {
  Rewriter rw(SchemaWith({{"R", 2}}), {});
  EXPECT_EQ(rw.Rewrite(Q("q(x) :- R(x, y)")).status().code(),
            StatusCode::kInternal);
}

TEST_F(RewriterTest, SelfJoinQuery) {
  Schema s = SchemaWith({{"E", 2}});
  auto result = MustRewrite(s, {View("V(x, y) :- E(x, y)")},
                            Q("q(x, z) :- E(x, y), E(y, z)"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body.size(), 2u);
  // Shared join variable preserved.
  const auto& b = result.rewritings[0].query.body;
  EXPECT_EQ(b[0].terms[1], b[1].terms[0]);
}

TEST_F(RewriterTest, NaiveAgreesWithPacb) {
  Schema s = SchemaWith({{"R", 2}, {"S", 2}, {"T", 2}});
  std::vector<ViewDefinition> views{
      View("V1(x, y) :- R(x, y)"), View("V2(y, z) :- S(y, z)"),
      View("V3(z, w) :- T(z, w)"), View("VJ(x, z) :- R(x, y), S(y, z)")};
  ConjunctiveQuery q = Q("q(x, w) :- R(x, y), S(y, z), T(z, w)");

  Rewriter pacb(s, views);
  ASSERT_TRUE(pacb.Prepare().ok());
  auto pr = pacb.Rewrite(q);
  ASSERT_TRUE(pr.ok()) << pr.status();

  NaiveChaseBackchase naive(s, views);
  ASSERT_TRUE(naive.Prepare().ok());
  auto nr = naive.Rewrite(q);
  ASSERT_TRUE(nr.ok()) << nr.status();

  auto canon = [](const RewritingResult& r) {
    std::multiset<size_t> sizes;
    for (const auto& rw : r.rewritings) sizes.insert(rw.query.body.size());
    return sizes;
  };
  EXPECT_EQ(canon(*pr), canon(*nr));
  EXPECT_GE(pr->rewritings.size(), 2u);  // VJ⋈V3 and V1⋈V2⋈V3.
  // The naive algorithm examines many more candidate subqueries (memoized
  // verification can collapse the actual chase-check counts, so compare
  // the enumeration effort).
  EXPECT_GT(nr->stats.candidates_considered, pr->stats.candidates_considered);
  EXPECT_GE(nr->stats.candidates_verified, pr->stats.candidates_verified);
}

TEST_F(RewriterTest, DocumentTreeEncodingRewriting) {
  // The paper's generic document encoding: a view materializing the
  // (node, tag, value) index of a document dataset answers tag/value
  // queries; the tree axioms (one tag per node, etc.) ride along in the
  // schema constraints during the chase.
  auto tree = encoding::DocumentTreeEncoding("d");
  ASSERT_TRUE(tree.ok()) << tree.status();
  auto result = MustRewrite(
      *tree, {View("VTagVal(n, t, v) :- d.Tag(n, t), d.Val(n, v)")},
      Q("q(n, v) :- d.Tag(n, 'title'), d.Val(n, v)"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body[0].relation, "VTagVal");
  // And a Child/Desc structural view answers a Child query but NOT a
  // Desc query (Desc is strictly larger; exactness forbids it).
  auto child = MustRewrite(*tree, {View("VC(p, c) :- d.Child(p, c)")},
                           Q("q(p, c) :- d.Child(p, c)"));
  EXPECT_EQ(child.rewritings.size(), 1u);
  auto desc = MustRewrite(*tree, {View("VC(p, c) :- d.Child(p, c)")},
                          Q("q(a, b) :- d.Desc(a, b)"));
  EXPECT_TRUE(desc.rewritings.empty());
}

TEST_F(RewriterTest, OneTagEgdMergesAcrossViews) {
  // Two lossy views over the same node: VTag keeps tags, VVal keeps
  // values. Thanks to the tree EGDs (one tag, one value per node), their
  // join is an exact rewriting of the combined query.
  auto tree = encoding::DocumentTreeEncoding("d");
  ASSERT_TRUE(tree.ok());
  auto result = MustRewrite(
      *tree,
      {View("VTag(n, t) :- d.Tag(n, t)"), View("VVal(n, v) :- d.Val(n, v)")},
      Q("q(n, t, v) :- d.Tag(n, t), d.Val(n, v)"));
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].query.body.size(), 2u);
}

/// Property test: for random chain queries and view subsets, every
/// rewriting returned by PACB evaluates to exactly the same answers as
/// the original query on random instances (checked by direct evaluation:
/// materialize views, evaluate rewriting over them).
class PacbEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacbEquivalenceProperty, RewritingsAreExact) {
  Rng rng(GetParam());
  const size_t chain_len = 2 + rng.Uniform(3);  // 2..4 relations
  Schema s;
  std::vector<std::string> rels;
  for (size_t i = 0; i < chain_len; ++i) {
    std::string r = StrCat("R", i);
    ASSERT_TRUE(s.AddRelation(r, 2).ok());
    rels.push_back(r);
  }
  // Views: each base relation, plus a couple of random adjacent joins.
  std::vector<ViewDefinition> views;
  for (size_t i = 0; i < chain_len; ++i) {
    views.push_back(View(StrCat("V", i, "(a, b) :- ", rels[i], "(a, b)")));
  }
  for (size_t i = 0; i + 1 < chain_len; ++i) {
    if (rng.Chance(0.5)) {
      views.push_back(View(StrCat("VJ", i, "(a, c) :- ", rels[i],
                                  "(a, b), ", rels[i + 1], "(b, c)")));
    }
  }
  // Query: the full chain.
  std::string body;
  for (size_t i = 0; i < chain_len; ++i) {
    if (i > 0) body += ", ";
    body += StrCat(rels[i], "(x", i, ", x", i + 1, ")");
  }
  ConjunctiveQuery q = Q(StrCat("q(x0, x", chain_len, ") :- ", body));

  Rewriter rw(s, views);
  ASSERT_TRUE(rw.Prepare().ok());
  auto result = rw.Rewrite(q);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->rewritings.empty());

  // Random base instance.
  chase::Instance base;
  const int64_t domain = 5;
  for (const std::string& r : rels) {
    size_t tuples = 4 + rng.Uniform(8);
    for (size_t t = 0; t < tuples; ++t) {
      base.Insert(Atom(
          r, {Term::Int(static_cast<int64_t>(rng.Uniform(domain))),
              Term::Int(static_cast<int64_t>(rng.Uniform(domain)))}));
    }
  }
  // Materialize views over the base instance.
  chase::Instance view_inst;
  for (const ViewDefinition& v : views) {
    for (const auto& m : chase::FindHomomorphisms(v.query.body, base)) {
      Atom out;
      out.relation = v.name();
      for (const Term& h : v.query.head) {
        out.terms.push_back(pivot::ApplySubstitution(m.sub, h));
      }
      view_inst.Insert(out);
    }
  }
  auto answers = [](const ConjunctiveQuery& query,
                    const chase::Instance& inst) {
    std::set<std::string> out;
    for (const auto& m : chase::FindHomomorphisms(query.body, inst)) {
      std::string row;
      for (const Term& h : query.head) {
        row += pivot::ApplySubstitution(m.sub, h).ToString();
        row += "|";
      }
      out.insert(row);
    }
    return out;
  };
  auto expected = answers(q, base);
  for (const auto& rewriting : result->rewritings) {
    EXPECT_EQ(answers(rewriting.query, view_inst), expected)
        << "rewriting " << rewriting.query.ToString() << "\nquery "
        << q.ToString();
  }
}

/// Property: PACB and the naive C&B agree on the *set* of minimal
/// rewritings for random chain/star queries with random view subsets
/// (completeness of the provenance-driven search, checked against the
/// exhaustive baseline).
class PacbVsNaiveProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacbVsNaiveProperty, SameRewritingSets) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const size_t n = 2 + rng.Uniform(3);  // 2..4 relations
    Schema s;
    std::vector<std::string> rels;
    for (size_t i = 0; i < n; ++i) {
      std::string r = StrCat("R", i);
      EXPECT_TRUE(s.AddRelation(r, 2).ok());
      rels.push_back(r);
    }
    std::vector<ViewDefinition> views;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.85)) {
        views.push_back(
            View(StrCat("V", i, "(a, b) :- ", rels[i], "(a, b)")));
      }
    }
    for (size_t i = 0; i + 1 < n; ++i) {
      if (rng.Chance(0.4)) {
        views.push_back(View(StrCat("VJ", i, "(a, c) :- ", rels[i],
                                    "(a, b), ", rels[i + 1], "(b, c)")));
      }
    }
    if (views.empty()) continue;
    // Query: chain or star.
    std::string body;
    bool star = rng.Chance(0.3);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) body += ", ";
      body += star ? StrCat(rels[i], "(hub, y", i, ")")
                   : StrCat(rels[i], "(x", i, ", x", i + 1, ")");
    }
    ConjunctiveQuery q =
        Q(star ? StrCat("q(hub) :- ", body)
               : StrCat("q(x0, x", n, ") :- ", body));

    auto canon = [](const RewritingResult& r) {
      std::multiset<std::string> out;
      for (const auto& rw : r.rewritings) {
        // Canonicalize by sorted atom list (variable names may differ).
        std::multiset<std::string> rels_used;
        for (const auto& a : rw.query.body) rels_used.insert(a.relation);
        out.insert(StrJoin(rels_used, "+"));
      }
      return out;
    };
    Rewriter pacb(s, views);
    ASSERT_TRUE(pacb.Prepare().ok());
    auto pr = pacb.Rewrite(q);
    ASSERT_TRUE(pr.ok()) << pr.status();
    NaiveChaseBackchase naive(s, views);
    ASSERT_TRUE(naive.Prepare().ok());
    auto nr = naive.Rewrite(q);
    ASSERT_TRUE(nr.ok()) << nr.status();
    EXPECT_EQ(canon(*pr), canon(*nr))
        << q.ToString() << " with " << views.size() << " views";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacbVsNaiveProperty,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006));

INSTANTIATE_TEST_SUITE_P(Seeds, PacbEquivalenceProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

}  // namespace
}  // namespace estocada::pacb
