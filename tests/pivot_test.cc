#include <gtest/gtest.h>

#include "pivot/atom.h"
#include "pivot/dependency.h"
#include "pivot/parser.h"
#include "pivot/query.h"
#include "pivot/schema.h"
#include "pivot/term.h"

namespace estocada::pivot {
namespace {

TEST(TermTest, KindsAndAccessors) {
  Term v = Term::Var("x");
  Term c = Term::Str("paris");
  Term n = Term::Null(7);
  EXPECT_TRUE(v.is_variable());
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(n.is_labelled_null());
  EXPECT_TRUE(c.is_ground());
  EXPECT_TRUE(n.is_ground());
  EXPECT_FALSE(v.is_ground());
  EXPECT_EQ(v.var_name(), "x");
  EXPECT_EQ(c.constant().string_value(), "paris");
  EXPECT_EQ(n.null_id(), 7u);
}

TEST(TermTest, ToStringForms) {
  EXPECT_EQ(Term::Var("x").ToString(), "x");
  EXPECT_EQ(Term::Str("a").ToString(), "'a'");
  EXPECT_EQ(Term::Int(5).ToString(), "5");
  EXPECT_EQ(Term::Null(3).ToString(), "_N3");
  EXPECT_EQ(Term::Const(Constant::Bool(true)).ToString(), "true");
  EXPECT_EQ(Term::Const(Constant::Null()).ToString(), "null");
  EXPECT_EQ(Term::Const(Constant::Real(2.5)).ToString(), "2.5");
}

TEST(TermTest, EqualityAndHash) {
  EXPECT_EQ(Term::Var("x"), Term::Var("x"));
  EXPECT_NE(Term::Var("x"), Term::Var("y"));
  EXPECT_NE(Term::Var("x"), Term::Str("x"));
  EXPECT_EQ(Term::Null(1), Term::Null(1));
  EXPECT_NE(Term::Null(1), Term::Null(2));
  EXPECT_EQ(Term::Var("x").Hash(), Term::Var("x").Hash());
  EXPECT_NE(Term::Int(1).Hash(), Term::Int(2).Hash());
}

TEST(ConstantTest, TypedDistinctions) {
  // Numbers compare by value, as engine values do.
  EXPECT_EQ(Constant::Int(1), Constant::Real(1.0));
  EXPECT_EQ(Constant::Int(1).Hash(), Constant::Real(1.0).Hash());
  EXPECT_FALSE(Constant::Int(1) < Constant::Real(1.0));
  EXPECT_TRUE(Constant::Int(1) < Constant::Real(1.5));
  EXPECT_NE(Constant::Str("1"), Constant::Int(1));
  EXPECT_EQ(Constant::Null(), Constant::Null());
  EXPECT_TRUE(Constant::Null() < Constant::Bool(false));
}

TEST(AtomTest, ToStringAndVariables) {
  Atom a("R", {Term::Var("x"), Term::Str("p"), Term::Var("y")});
  EXPECT_EQ(a.ToString(), "R(x, 'p', y)");
  Atom b("S", {Term::Var("y"), Term::Var("z")});
  auto vars = CollectVariables({a, b});
  EXPECT_EQ(vars, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_TRUE(ContainsVariable({a}, "x"));
  EXPECT_FALSE(ContainsVariable({a}, "z"));
}

TEST(QueryTest, ParseSimple) {
  auto q = ParseQuery("q(x, y) :- R(x, z), S(z, y)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->name, "q");
  EXPECT_EQ(q->arity(), 2u);
  ASSERT_EQ(q->body.size(), 2u);
  EXPECT_EQ(q->body[0].relation, "R");
  EXPECT_EQ(q->ToString(), "q(x, y) :- R(x, z), S(z, y)");
}

TEST(QueryTest, ParseConstants) {
  auto q = ParseQuery("q(x) :- T(x, 'paris', 42, 2.5, true, null)");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& terms = q->body[0].terms;
  ASSERT_EQ(terms.size(), 6u);
  EXPECT_TRUE(terms[0].is_variable());
  EXPECT_EQ(terms[1].constant().string_value(), "paris");
  EXPECT_EQ(terms[2].constant().int_value(), 42);
  EXPECT_DOUBLE_EQ(terms[3].constant().real_value(), 2.5);
  EXPECT_TRUE(terms[4].constant().bool_value());
  EXPECT_TRUE(terms[5].constant().is_null());
}

TEST(QueryTest, ParseRejectsUnsafe) {
  auto q = ParseQuery("q(x, w) :- R(x, y)");
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseQuery("q(x)").ok());
  EXPECT_FALSE(ParseQuery("q(x) :- ").ok());
  EXPECT_FALSE(ParseQuery("q(x) :- R(x) extra").ok());
  EXPECT_FALSE(ParseQuery(":- R(x)").ok());
  for (auto bad : {"q(x)", "q(x) :-"}) {
    EXPECT_EQ(ParseQuery(bad).status().code(), StatusCode::kParseError);
  }
}

TEST(QueryTest, SubstitutionApplication) {
  Substitution sub{{"x", Term::Int(1)}, {"z", Term::Null(4)}};
  Atom a("R", {Term::Var("x"), Term::Var("y"), Term::Var("z")});
  Atom out = ApplySubstitution(sub, a);
  EXPECT_EQ(out.ToString(), "R(1, y, _N4)");
}

TEST(QueryTest, FreezeBodyNumbersVariablesInOrder) {
  auto q = ParseQuery("q(x) :- R(x, y), S(y, x)");
  ASSERT_TRUE(q.ok());
  FrozenBody fb = FreezeBody(*q, 10);
  EXPECT_EQ(fb.atoms[0].ToString(), "R(_N10, _N11)");
  EXPECT_EQ(fb.atoms[1].ToString(), "S(_N11, _N10)");
  EXPECT_EQ(fb.freeze.at("x"), Term::Null(10));
}

TEST(QueryTest, RenameVariablesIsConsistent) {
  auto q = ParseQuery("q(x) :- R(x, y), S(y, 'c')");
  ASSERT_TRUE(q.ok());
  ConjunctiveQuery r = q->RenameVariables("v_");
  EXPECT_EQ(r.ToString(), "q(v_x) :- R(v_x, v_y), S(v_y, 'c')");
}

TEST(DependencyTest, ParseTgdWithExistential) {
  auto d = ParseDependency("R(x, y) -> S(x, w), T(w, y)", "d1");
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(d->is_tgd());
  EXPECT_EQ(d->label(), "d1");
  EXPECT_EQ(d->tgd.ExistentialVariables(),
            (std::vector<std::string>{"w"}));
  auto frontier = d->tgd.FrontierVariables();
  EXPECT_EQ(frontier, (std::vector<std::string>{"x", "y"}));
}

TEST(DependencyTest, ParseEgd) {
  auto d = ParseDependency("R(x, y), R(x, z) -> y = z", "key");
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_TRUE(d->is_egd());
  EXPECT_EQ(d->egd.left, Term::Var("y"));
  EXPECT_EQ(d->egd.right, Term::Var("z"));
  EXPECT_EQ(d->egd.body.size(), 2u);
}

TEST(DependencyTest, ParseMultipleWithComments) {
  auto deps = ParseDependencies(R"(
    # transitivity-style axioms
    Child(p, c) -> Desc(p, c)
    Desc(a, b), Child(b, c) -> Desc(a, c)
    Child(p, c), Child(q, c) -> p = q
  )");
  ASSERT_TRUE(deps.ok()) << deps.status();
  ASSERT_EQ(deps->size(), 3u);
  EXPECT_TRUE((*deps)[0].is_tgd());
  EXPECT_TRUE((*deps)[2].is_egd());
}

TEST(DependencyTest, ToStringRoundTrips) {
  auto d = ParseDependency("R(x, y) -> S(y, w)");
  ASSERT_TRUE(d.ok());
  auto d2 = ParseDependency(d->ToString());
  ASSERT_TRUE(d2.ok()) << d->ToString();
  EXPECT_EQ(d2->ToString(), d->ToString());
}

TEST(WeakAcyclicityTest, AcyclicSetPasses) {
  auto deps = ParseDependencies(R"(
    Child(p, c) -> Desc(p, c)
    Desc(a, b), Child(b, c) -> Desc(a, c)
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_TRUE(IsWeaklyAcyclic(*deps));
}

TEST(WeakAcyclicityTest, ExistentialCycleFails) {
  // R(x,y) -> R(y,w): w existential feeding back into R positions — the
  // classic non-terminating chase example.
  auto deps = ParseDependencies("R(x, y) -> R(y, w)");
  ASSERT_TRUE(deps.ok());
  EXPECT_FALSE(IsWeaklyAcyclic(*deps));
}

TEST(WeakAcyclicityTest, FullTgdCycleIsFine) {
  // Cycles without existentials are weakly acyclic.
  auto deps = ParseDependencies(R"(
    R(x, y) -> S(y, x)
    S(x, y) -> R(y, x)
  )");
  ASSERT_TRUE(deps.ok());
  EXPECT_TRUE(IsWeaklyAcyclic(*deps));
}

TEST(SchemaTest, AddAndLookup) {
  Schema s;
  RelationSignature sig;
  sig.name = "KV";
  sig.columns = {"key", "value"};
  sig.adornments = {Adornment::kInput, Adornment::kFree};
  sig.key = {0};
  ASSERT_TRUE(s.AddRelation(sig).ok());
  ASSERT_TRUE(s.AddRelation("R", 3).ok());
  EXPECT_TRUE(s.HasRelation("KV"));
  EXPECT_FALSE(s.HasRelation("Nope"));
  auto got = s.GetRelation("KV");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->HasAccessPattern());
  EXPECT_EQ(got->ToString(), "KV(key^in, value)");
  auto r = s.GetRelation("R");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->HasAccessPattern());
}

TEST(SchemaTest, ConflictingArityRejected) {
  Schema s;
  ASSERT_TRUE(s.AddRelation("R", 2).ok());
  EXPECT_TRUE(s.AddRelation("R", 2).ok());  // idempotent
  EXPECT_EQ(s.AddRelation("R", 3).code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ValidateChecksDependencyArity) {
  Schema s;
  ASSERT_TRUE(s.AddRelation("R", 2).ok());
  auto d = ParseDependency("R(x, y, z) -> R(x, y, z)");
  ASSERT_TRUE(d.ok());
  s.AddDependency(*d);
  EXPECT_EQ(s.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ValidateChecksUnknownRelation) {
  Schema s;
  auto d = ParseDependency("R(x, y) -> S(x, y)");
  ASSERT_TRUE(d.ok());
  s.AddDependency(*d);
  EXPECT_EQ(s.Validate().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, MergeCombines) {
  Schema a;
  ASSERT_TRUE(a.AddRelation("R", 2).ok());
  Schema b;
  ASSERT_TRUE(b.AddRelation("S", 1).ok());
  auto d = ParseDependency("S(x) -> S(x)");
  ASSERT_TRUE(d.ok());
  b.AddDependency(*d);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_TRUE(a.HasRelation("S"));
  EXPECT_EQ(a.dependencies().size(), 1u);
  EXPECT_TRUE(a.Validate().ok());
}

TEST(ParserTest, AtomListStopsBeforeArrow) {
  auto atoms = ParseAtomList("R(x, y), S(y, z)");
  ASSERT_TRUE(atoms.ok());
  EXPECT_EQ(atoms->size(), 2u);
}

TEST(ParserTest, DollarIdentifiersAreVariables) {
  // '$'-prefixed identifiers denote runtime parameters; the parser treats
  // them as ordinary variables, feasibility treats them as pre-bound.
  auto q = ParseQuery("q(v) :- Cart($uid, v)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body[0].terms[0], Term::Var("$uid"));
}

TEST(ParserTest, QuotedStringConstantsRoundTrip) {
  // Quotes and backslashes inside string literals must survive
  // ToString -> Parse (catalog checkpoints rely on this).
  ConjunctiveQuery q;
  q.name = "q";
  q.body = {Atom("R", {Term::Var("x"), Term::Str("it's \\ tricky")})};
  q.head = {Term::Var("x")};
  auto parsed = ParseQuery(q.ToString());
  ASSERT_TRUE(parsed.ok()) << q.ToString() << " -> " << parsed.status();
  EXPECT_EQ(parsed->body[0].terms[1].constant().string_value(),
            "it's \\ tricky");
  EXPECT_EQ(parsed->ToString(), q.ToString());
}

TEST(ParserTest, DottedNamesAllowed) {
  auto q = ParseQuery("q(x) :- users.orders(x, y)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body[0].relation, "users.orders");
}

}  // namespace
}  // namespace estocada::pivot
