#ifndef SAQL_ENGINE_EXPR_EVAL_H_
#define SAQL_ENGINE_EXPR_EVAL_H_

#include "core/result.h"
#include "core/value.h"
#include "parser/ast.h"

namespace saql {

/// Resolves the free references of a SAQL expression during evaluation.
/// Different pipeline stages provide different contexts: a rule match binds
/// entity variables to matched events; a window close binds `ss[k]` to
/// window states, invariant variables, and cluster outcomes.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// Resolves a kRef node. Returning a null Value is legal and means "not
  /// available here" (e.g., `ss[2]` before two windows exist); null
  /// propagates through arithmetic and makes comparisons false.
  virtual Result<Value> ResolveRef(const Expr& ref) const = 0;

  /// Resolves a kCall node that is an aggregate (only meaningful when
  /// evaluating state-field expressions at window close, where aggregates
  /// have already been computed). Default: error.
  virtual Result<Value> ResolveAggregate(const Expr& call) const;
};

/// Evaluates `expr` under `ctx` with SQL-style null propagation:
///  - arithmetic with a null operand yields null;
///  - comparisons with a null operand yield false;
///  - `&&` / `||` / `!` treat null as false;
///  - set operators treat null as the empty set;
///  - `|null|` is 0.
///
/// String equality uses LIKE semantics when the right operand contains a
/// `%` or `_` wildcard, mirroring entity constraints.
Result<Value> EvaluateExpr(const Expr& expr, const EvalContext& ctx);

/// SAQL `==` on two non-null values: strings compare as LIKE when either
/// side holds a `%` or `_` wildcard (the right side is the pattern when
/// both do), and
/// otherwise ASCII case-insensitively without allocating; every other
/// pairing defers to `Value::Equals`.
bool ValuesEqual(const Value& a, const Value& b);

/// Evaluates `expr` and reduces it to a boolean via `Value::Truthy`
/// (errors surface as Result errors, not as false).
Result<bool> EvaluateBool(const Expr& expr, const EvalContext& ctx);

}  // namespace saql

#endif  // SAQL_ENGINE_EXPR_EVAL_H_
