#include "symbolic/expr.h"

#include <algorithm>

#include "common/error.h"

namespace ff::sym {

std::int64_t floordiv_i64(std::int64_t a, std::int64_t b) {
    if (b == 0) throw common::Error("symbolic evaluation: division by zero");
    // INT64_MIN / -1 overflows (and traps on x86): wrap like negation.
    if (b == -1) return static_cast<std::int64_t>(0ULL - static_cast<std::uint64_t>(a));
    std::int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
}

std::int64_t floormod_i64(std::int64_t a, std::int64_t b) {
    if (b == 0) throw common::Error("symbolic evaluation: modulo by zero");
    if (b == -1) return 0;  // INT64_MIN % -1 overflows; every a is a multiple of -1.
    std::int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

namespace {

std::int64_t apply_op(BinOp op, std::int64_t a, std::int64_t b) {
    switch (op) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::FloorDiv: return floordiv_i64(a, b);
        case BinOp::Mod: return floormod_i64(a, b);
        case BinOp::Min: return std::min(a, b);
        case BinOp::Max: return std::max(a, b);
    }
    throw common::Error("unreachable binop");
}

bool apply_cmp(CmpOp op, std::int64_t a, std::int64_t b) {
    switch (op) {
        case CmpOp::Lt: return a < b;
        case CmpOp::Le: return a <= b;
        case CmpOp::Gt: return a > b;
        case CmpOp::Ge: return a >= b;
        case CmpOp::Eq: return a == b;
        case CmpOp::Ne: return a != b;
    }
    throw common::Error("unreachable cmpop");
}

const char* op_text(BinOp op) {
    switch (op) {
        case BinOp::Add: return "+";
        case BinOp::Sub: return "-";
        case BinOp::Mul: return "*";
        case BinOp::FloorDiv: return "/";
        case BinOp::Mod: return "%";
        case BinOp::Min: return "min";
        case BinOp::Max: return "max";
    }
    return "?";
}

const char* cmp_text(CmpOp op) {
    switch (op) {
        case CmpOp::Lt: return "<";
        case CmpOp::Le: return "<=";
        case CmpOp::Gt: return ">";
        case CmpOp::Ge: return ">=";
        case CmpOp::Eq: return "==";
        case CmpOp::Ne: return "!=";
    }
    return "?";
}

int precedence(BinOp op) {
    switch (op) {
        case BinOp::Add:
        case BinOp::Sub: return 1;
        case BinOp::Mul:
        case BinOp::FloorDiv:
        case BinOp::Mod: return 2;
        case BinOp::Min:
        case BinOp::Max: return 3;  // printed as function calls
    }
    return 0;
}

}  // namespace

ExprPtr Expr::constant(std::int64_t value) {
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Kind::Constant;
    e->constant_ = value;
    return e;
}

ExprPtr Expr::symbol(std::string name) {
    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Kind::Symbol;
    e->symbol_ = std::move(name);
    return e;
}

ExprPtr Expr::binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
    // Constant folding.
    if (lhs->is_constant() && rhs->is_constant())
        return constant(apply_op(op, lhs->constant_value(), rhs->constant_value()));

    // Identity / absorbing elements.
    const bool lzero = lhs->is_constant() && lhs->constant_value() == 0;
    const bool rzero = rhs->is_constant() && rhs->constant_value() == 0;
    const bool lone = lhs->is_constant() && lhs->constant_value() == 1;
    const bool rone = rhs->is_constant() && rhs->constant_value() == 1;
    switch (op) {
        case BinOp::Add:
            if (lzero) return rhs;
            if (rzero) return lhs;
            break;
        case BinOp::Sub:
            if (rzero) return lhs;
            if (lhs->equals(*rhs)) return constant(0);
            break;
        case BinOp::Mul:
            if (lzero || rzero) return constant(0);
            if (lone) return rhs;
            if (rone) return lhs;
            break;
        case BinOp::FloorDiv:
            if (rone) return lhs;
            if (lzero) return constant(0);
            break;
        case BinOp::Mod:
            if (rone) return constant(0);
            break;
        case BinOp::Min:
        case BinOp::Max:
            if (lhs->equals(*rhs)) return lhs;
            break;
    }

    // Fold chained constant additions: (x + c1) + c2 -> x + (c1+c2).
    if ((op == BinOp::Add || op == BinOp::Sub) && rhs->is_constant() &&
        lhs->kind() == Kind::Binary &&
        (lhs->op() == BinOp::Add || lhs->op() == BinOp::Sub) && lhs->rhs()->is_constant()) {
        const std::int64_t inner = lhs->op() == BinOp::Add ? lhs->rhs()->constant_value()
                                                           : -lhs->rhs()->constant_value();
        const std::int64_t outer = op == BinOp::Add ? rhs->constant_value()
                                                    : -rhs->constant_value();
        const std::int64_t total = inner + outer;
        if (total == 0) return lhs->lhs();
        if (total > 0) return binary(BinOp::Add, lhs->lhs(), constant(total));
        return binary(BinOp::Sub, lhs->lhs(), constant(-total));
    }

    auto e = std::shared_ptr<Expr>(new Expr());
    e->kind_ = Kind::Binary;
    e->op_ = op;
    e->lhs_ = std::move(lhs);
    e->rhs_ = std::move(rhs);
    return e;
}

std::int64_t Expr::evaluate(const Bindings& bindings) const {
    switch (kind_) {
        case Kind::Constant: return constant_;
        case Kind::Symbol: {
            auto it = bindings.find(symbol_);
            if (it == bindings.end()) throw common::UnboundSymbolError(symbol_);
            return it->second;
        }
        case Kind::Binary:
            return apply_op(op_, lhs_->evaluate(bindings), rhs_->evaluate(bindings));
    }
    throw common::Error("unreachable expr kind");
}

ExprPtr Expr::substitute(const SubstMap& subst) const {
    switch (kind_) {
        case Kind::Constant: return constant(constant_);
        case Kind::Symbol: {
            auto it = subst.find(symbol_);
            if (it != subst.end()) return it->second;
            return symbol(symbol_);
        }
        case Kind::Binary:
            return binary(op_, lhs_->substitute(subst), rhs_->substitute(subst));
    }
    throw common::Error("unreachable expr kind");
}

void Expr::collect_symbols(std::set<std::string>& out) const {
    switch (kind_) {
        case Kind::Constant: return;
        case Kind::Symbol: out.insert(symbol_); return;
        case Kind::Binary:
            lhs_->collect_symbols(out);
            rhs_->collect_symbols(out);
            return;
    }
}

std::set<std::string> Expr::free_symbols() const {
    std::set<std::string> out;
    collect_symbols(out);
    return out;
}

bool Expr::equals(const Expr& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
        case Kind::Constant: return constant_ == other.constant_;
        case Kind::Symbol: return symbol_ == other.symbol_;
        case Kind::Binary:
            return op_ == other.op_ && lhs_->equals(*other.lhs_) && rhs_->equals(*other.rhs_);
    }
    return false;
}

std::string Expr::to_string() const {
    switch (kind_) {
        case Kind::Constant: return std::to_string(constant_);
        case Kind::Symbol: return symbol_;
        case Kind::Binary: {
            if (op_ == BinOp::Min || op_ == BinOp::Max) {
                return std::string(op_text(op_)) + "(" + lhs_->to_string() + ", " +
                       rhs_->to_string() + ")";
            }
            auto wrap = [this](const ExprPtr& child, bool right) {
                std::string s = child->to_string();
                if (child->kind() != Kind::Binary) return s;
                const int pc = precedence(child->op());
                const int pp = precedence(op_);
                // Parenthesize when the child binds weaker, or equal on the
                // right side of non-associative ops.
                const bool nonassoc = op_ == BinOp::Sub || op_ == BinOp::FloorDiv || op_ == BinOp::Mod;
                if (pc < pp || (pc == pp && right && nonassoc)) return "(" + s + ")";
                if (child->op() == BinOp::Min || child->op() == BinOp::Max) return s;
                return s;
            };
            return wrap(lhs_, false) + " " + op_text(op_) + " " + wrap(rhs_, true);
        }
    }
    return "?";
}

ExprPtr operator+(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::Add, a, b); }
ExprPtr operator-(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::Sub, a, b); }
ExprPtr operator*(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::Mul, a, b); }
ExprPtr operator+(const ExprPtr& a, std::int64_t b) { return a + Expr::constant(b); }
ExprPtr operator-(const ExprPtr& a, std::int64_t b) { return a - Expr::constant(b); }
ExprPtr operator*(const ExprPtr& a, std::int64_t b) { return a * Expr::constant(b); }
ExprPtr floordiv(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::FloorDiv, a, b); }
ExprPtr mod(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::Mod, a, b); }
ExprPtr min(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::Min, a, b); }
ExprPtr max(const ExprPtr& a, const ExprPtr& b) { return Expr::binary(BinOp::Max, a, b); }

// --- BoolExpr ---

BoolExprPtr BoolExpr::constant(bool value) {
    auto e = std::shared_ptr<BoolExpr>(new BoolExpr());
    e->kind_ = Kind::Constant;
    e->bconst_ = value;
    return e;
}

BoolExprPtr BoolExpr::compare(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
    if (lhs->is_constant() && rhs->is_constant())
        return constant(apply_cmp(op, lhs->constant_value(), rhs->constant_value()));
    auto e = std::shared_ptr<BoolExpr>(new BoolExpr());
    e->kind_ = Kind::Compare;
    e->cmp_ = op;
    e->lhs_ = std::move(lhs);
    e->rhs_ = std::move(rhs);
    return e;
}

BoolExprPtr BoolExpr::logical_and(BoolExprPtr a, BoolExprPtr b) {
    if (a->kind() == Kind::Constant) return a->constant_value() ? b : a;
    if (b->kind() == Kind::Constant) return b->constant_value() ? a : b;
    auto e = std::shared_ptr<BoolExpr>(new BoolExpr());
    e->kind_ = Kind::And;
    e->a_ = std::move(a);
    e->b_ = std::move(b);
    return e;
}

BoolExprPtr BoolExpr::logical_or(BoolExprPtr a, BoolExprPtr b) {
    if (a->kind() == Kind::Constant) return a->constant_value() ? a : b;
    if (b->kind() == Kind::Constant) return b->constant_value() ? b : a;
    auto e = std::shared_ptr<BoolExpr>(new BoolExpr());
    e->kind_ = Kind::Or;
    e->a_ = std::move(a);
    e->b_ = std::move(b);
    return e;
}

BoolExprPtr BoolExpr::logical_not(BoolExprPtr a) {
    if (a->kind() == Kind::Constant) return constant(!a->constant_value());
    auto e = std::shared_ptr<BoolExpr>(new BoolExpr());
    e->kind_ = Kind::Not;
    e->a_ = std::move(a);
    return e;
}

bool BoolExpr::evaluate(const Bindings& bindings) const {
    switch (kind_) {
        case Kind::Constant: return bconst_;
        case Kind::Compare:
            return apply_cmp(cmp_, lhs_->evaluate(bindings), rhs_->evaluate(bindings));
        case Kind::And: return a_->evaluate(bindings) && b_->evaluate(bindings);
        case Kind::Or: return a_->evaluate(bindings) || b_->evaluate(bindings);
        case Kind::Not: return !a_->evaluate(bindings);
    }
    throw common::Error("unreachable boolexpr kind");
}

BoolExprPtr BoolExpr::substitute(const SubstMap& subst) const {
    switch (kind_) {
        case Kind::Constant: return constant(bconst_);
        case Kind::Compare:
            return compare(cmp_, lhs_->substitute(subst), rhs_->substitute(subst));
        case Kind::And: return logical_and(a_->substitute(subst), b_->substitute(subst));
        case Kind::Or: return logical_or(a_->substitute(subst), b_->substitute(subst));
        case Kind::Not: return logical_not(a_->substitute(subst));
    }
    throw common::Error("unreachable boolexpr kind");
}

void BoolExpr::collect_symbols(std::set<std::string>& out) const {
    switch (kind_) {
        case Kind::Constant: return;
        case Kind::Compare:
            lhs_->collect_symbols(out);
            rhs_->collect_symbols(out);
            return;
        case Kind::And:
        case Kind::Or:
            a_->collect_symbols(out);
            b_->collect_symbols(out);
            return;
        case Kind::Not: a_->collect_symbols(out); return;
    }
}

bool BoolExpr::equals(const BoolExpr& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
        case Kind::Constant: return bconst_ == other.bconst_;
        case Kind::Compare:
            return cmp_ == other.cmp_ && lhs_->equals(*other.lhs_) && rhs_->equals(*other.rhs_);
        case Kind::And:
        case Kind::Or: return a_->equals(*other.a_) && b_->equals(*other.b_);
        case Kind::Not: return a_->equals(*other.a_);
    }
    return false;
}

std::string BoolExpr::to_string() const {
    switch (kind_) {
        case Kind::Constant: return bconst_ ? "true" : "false";
        case Kind::Compare:
            return lhs_->to_string() + " " + cmp_text(cmp_) + " " + rhs_->to_string();
        case Kind::And: return "(" + a_->to_string() + " and " + b_->to_string() + ")";
        case Kind::Or: return "(" + a_->to_string() + " or " + b_->to_string() + ")";
        case Kind::Not: return "not (" + a_->to_string() + ")";
    }
    return "?";
}

}  // namespace ff::sym
