#include "fgq/eval/bmm.h"

#include <algorithm>

#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/parser.h"

namespace fgq {

ConjunctiveQuery MatrixProductQuery() {
  return ParseConjunctiveQuery("Pi(x, y) :- A(x, z), B(z, y).").value();
}

Database BuildMatrixDatabase(const BoolMatrix& a, const BoolMatrix& b) {
  Database db;
  // Each matrix's pairs in ascending order: canonical as built.
  auto pairs = [](const std::string& name, const BoolMatrix& m) {
    std::vector<Relation::ColumnVec> cols(2);
    for (size_t i = 0; i < m.n; ++i) {
      for (size_t j = 0; j < m.n; ++j) {
        if (m.Get(i, j)) {
          cols[0].push_back(static_cast<Value>(i));
          cols[1].push_back(static_cast<Value>(j));
        }
      }
    }
    return Relation::FromColumns(name, std::move(cols), /*sorted=*/true);
  };
  db.PutRelation(pairs("A", a));
  db.PutRelation(pairs("B", b));
  db.DeclareDomainSize(static_cast<Value>(a.n));
  return db;
}

BoolMatrix MultiplyNaive(const BoolMatrix& a, const BoolMatrix& b) {
  BoolMatrix c(a.n);
  for (size_t i = 0; i < a.n; ++i) {
    for (size_t k = 0; k < a.n; ++k) {
      if (!a.Get(i, k)) continue;
      for (size_t j = 0; j < a.n; ++j) {
        if (b.Get(k, j)) c.Set(i, j, true);
      }
    }
  }
  return c;
}

Result<BoolMatrix> MultiplyViaQuery(const BoolMatrix& a, const BoolMatrix& b) {
  if (a.n != b.n) return Status::InvalidArgument("matrix size mismatch");
  Database db = BuildMatrixDatabase(a, b);
  FGQ_ASSIGN_OR_RETURN(Relation res, EvaluateYannakakis(MatrixProductQuery(), db));
  BoolMatrix c(a.n);
  const Value* col_i = res.Column(0);
  const Value* col_j = res.Column(1);
  for (size_t r = 0; r < res.NumTuples(); ++r) {
    c.Set(static_cast<size_t>(col_i[r]), static_cast<size_t>(col_j[r]), true);
  }
  return c;
}

Result<Database> EmbedMatricesIntoQuery(const ConjunctiveQuery& q,
                                        const std::string& x_var,
                                        const std::string& y_var,
                                        const std::string& z_var,
                                        const BoolMatrix& a,
                                        const BoolMatrix& b) {
  if (a.n != b.n) return Status::InvalidArgument("matrix size mismatch");
  if (!q.IsSelfJoinFree()) {
    return Status::InvalidArgument("embedding requires a self-join-free query");
  }
  const Value n = static_cast<Value>(a.n);
  const Value bottom = n;  // Padding element, the paper's "bot".

  Database db;
  for (const Atom& atom : q.atoms()) {
    std::vector<std::string> vars = atom.Variables();
    bool has_x = std::count(vars.begin(), vars.end(), x_var) > 0;
    bool has_y = std::count(vars.begin(), vars.end(), y_var) > 0;
    bool has_z = std::count(vars.begin(), vars.end(), z_var) > 0;
    if (has_x && has_y) {
      return Status::InvalidArgument(
          "variables '" + x_var + "' and '" + y_var +
          "' share an atom; pick a genuine Pi-shaped obstruction");
    }
    std::vector<Relation::ColumnVec> cols(atom.arity());
    auto emit = [&](Value av, Value bv, Value cv) {
      for (size_t j = 0; j < atom.args.size(); ++j) {
        const Term& term = atom.args[j];
        Value v = bottom;
        if (!term.is_var()) {
          v = term.constant;
        } else if (term.var == x_var) {
          v = av;
        } else if (term.var == z_var) {
          v = bv;
        } else if (term.var == y_var) {
          v = cv;
        }
        cols[j].push_back(v);
      }
    };
    if (has_x && has_z) {
      for (Value i = 0; i < n; ++i) {
        for (Value j = 0; j < n; ++j) {
          if (a.Get(static_cast<size_t>(i), static_cast<size_t>(j))) {
            emit(i, j, bottom);
          }
        }
      }
    } else if (has_z && has_y) {
      for (Value i = 0; i < n; ++i) {
        for (Value j = 0; j < n; ++j) {
          if (b.Get(static_cast<size_t>(i), static_cast<size_t>(j))) {
            emit(bottom, i, j);
          }
        }
      }
    } else if (has_x) {
      for (Value i = 0; i < n; ++i) emit(i, bottom, bottom);
    } else if (has_y) {
      for (Value i = 0; i < n; ++i) emit(bottom, bottom, i);
    } else if (has_z) {
      for (Value i = 0; i < n; ++i) emit(bottom, i, bottom);
    } else {
      emit(bottom, bottom, bottom);
    }
    Relation rel = Relation::FromColumns(atom.relation, std::move(cols));
    // A nullary atom takes the last branch: its one (empty) row.
    if (atom.arity() == 0) rel.AddNullary();
    rel.SortDedup();
    db.PutRelation(std::move(rel));
  }
  db.DeclareDomainSize(n + 1);
  return db;
}

}  // namespace fgq
